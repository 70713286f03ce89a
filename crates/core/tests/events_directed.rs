//! Directed tests for the posit event subsystem: NaR production on the
//! cases posits handle differently from IEEE (one NaR value, no signed
//! zero, no overflow-to-infinity), and monotonicity of sticky event
//! counts over an exhaustive sweep.

use nga_core::{Posit, PositEvents, PositFormat};

const P8: PositFormat = PositFormat::POSIT8;

fn p(x: f64) -> Posit {
    Posit::from_f64(x, P8)
}

#[test]
fn division_by_zero_produces_nar_with_the_nar_event() {
    let (q, events) = p(1.0).div_with_events(Posit::zero(P8));
    assert!(q.is_nar());
    assert!(events.contains(PositEvents::NAR));
}

#[test]
fn nar_propagation_is_absorbing_but_raises_no_new_event() {
    // The counter tracks NaR *production*: a poisoned input flowing
    // through is not a new fault, so propagation must not inflate it.
    let nar = Posit::nar(P8);
    for (r, events) in [
        nar.add_with_events(p(1.0)),
        nar.sub_with_events(p(1.0)),
        nar.mul_with_events(p(1.0)),
        nar.div_with_events(p(1.0)),
        p(1.0).div_with_events(nar),
    ] {
        assert!(r.is_nar(), "NaR is absorbing");
        assert!(
            !events.contains(PositEvents::NAR),
            "propagation is not production"
        );
    }
}

#[test]
fn saturation_does_not_produce_nar() {
    // maxpos * maxpos saturates to maxpos — posits never overflow to a
    // special value, so the NAR counter must stay untouched.
    let maxpos = Posit::from_bits(0x7F, P8);
    let (r, events) = maxpos.mul_with_events(maxpos);
    assert!(!r.is_nar());
    assert!(events.contains(PositEvents::SATURATED));
    assert!(!events.contains(PositEvents::NAR));
}

#[test]
fn nar_counter_grows_monotonically_over_an_exhaustive_sweep() {
    // Run every posit8 (a, b) pair through mul and div, counting ops and
    // events locally and OR-ing the events into a sticky union. Each
    // count must be non-decreasing after every op (sticky semantics:
    // nothing ever clears).
    let (mut ops, mut nar, mut inexact) = (0u64, 0u64, 0u64);
    let mut union = PositEvents::NONE;
    for a in 0..=255u8 {
        for b in 0..=255u8 {
            let x = Posit::from_bits(u64::from(a), P8);
            let y = Posit::from_bits(u64::from(b), P8);
            let (_, me) = x.mul_with_events(y);
            let (_, de) = x.div_with_events(y);
            let (last_nar, last_inexact, last_ops) = (nar, inexact, ops);
            for ev in [me, de] {
                ops += 1;
                nar += u64::from(ev.contains(PositEvents::NAR));
                inexact += u64::from(ev.contains(PositEvents::INEXACT));
                union |= ev;
            }
            assert!(nar >= last_nar, "NaR counter went backwards");
            assert!(inexact >= last_inexact);
            assert!(ops > last_ops, "ops must strictly grow");
        }
    }
    assert_eq!(ops, 2 * 256 * 256);
    // Every div with b = 0 or NaR operands produces NaR; the exact count
    // is a regression pin for the event plumbing.
    assert!(nar > 0);
    assert!(inexact > 0);
    // The sticky union reflects everything seen across the sweep.
    assert!(union.contains(PositEvents::NAR));
    assert!(union.contains(PositEvents::INEXACT));
}
