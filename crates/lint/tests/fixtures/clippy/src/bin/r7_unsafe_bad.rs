//! R7 crate-header, bad: `unsafe` in a package that inherits
//! `[workspace.lints.rust] unsafe_code = "forbid"`.
// expect: unsafe_code

fn first(values: &[u32]) -> u32 {
    if values.is_empty() {
        return 0;
    }
    unsafe { *values.get_unchecked(0) }
}

fn main() {
    println!("{}", first(&[7, 8]));
}
