// R10 fixture (bad tree): a clock read flows through a let chain into
// the WAL `append` sink. The edge file may read the OS clock, but the
// value still must not reach durable bytes.
// Expected: one determinism-taint violation at the `append` call.

pub fn persist(w: &mut Wal) {
    let t = Instant::now();
    let micros = t.elapsed().as_micros();
    w.append(7, micros);
}
