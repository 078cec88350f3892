// R3 fixture: float-discipline breaches. Expected: 4 violations.

pub fn compare(bill: f64, scores: &mut Vec<(f64, usize)>) -> bool {
    scores.sort_by(|a, b| a.0.partial_cmp(&b.0).unwrap()); // violation 1 (partial_cmp)
    if bill == 0.0 { // violation 2 (float literal ==)
        return true;
    }
    if bill != -1.5 { // violation 3 (float literal != with unary minus)
        return false;
    }
    let exact = 0.1 + 0.2;
    exact == 0.3 // violation 4
}

pub fn disciplined(bill: f64, scores: &mut Vec<(f64, usize)>) -> bool {
    // total_cmp sorts and tolerance comparisons are the sanctioned forms.
    scores.sort_by(|a, b| a.0.total_cmp(&b.0));
    (bill - 0.3).abs() < 1e-9 && bill < 1.0 && bill >= 0.0
}
