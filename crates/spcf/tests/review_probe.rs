use probterm_spcf::{parse_term, run_machine_summary, FixedTrace, Strategy};

#[test]
fn deep_cbn_truncated_run_drops_without_overflow() {
    let term = parse_term("(fix phi x. phi x) 0").unwrap();
    let mut t = FixedTrace::new(vec![]);
    let s = run_machine_summary(Strategy::CallByName, &term, &mut t, 30_000, None);
    assert_eq!(s.steps, 30_000);
}
