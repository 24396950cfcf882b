//! Property tests over the roaming agreement graph.

use proptest::prelude::*;
use wtr_model::country::Country;
use wtr_model::ids::{Mcc, Mnc, Plmn};
use wtr_platform::agreements::AgreementGraph;
use wtr_sim::world::AccessPolicy;

fn arb_plmn() -> impl Strategy<Value = Plmn> {
    (200u16..=799, 0u16..=99)
        .prop_map(|(mcc, mnc)| Plmn::new(Mcc::new(mcc).unwrap(), Mnc::new2(mnc).unwrap()))
}

proptest! {
    #[test]
    fn bilateral_agreements_are_symmetric(pairs in prop::collection::vec((arb_plmn(), arb_plmn()), 0..20)) {
        let mut g = AgreementGraph::new();
        for (a, b) in &pairs {
            g.add_bilateral(*a, *b);
        }
        for (a, b) in &pairs {
            prop_assert!(g.has_bilateral(*a, *b));
            prop_assert!(g.has_bilateral(*b, *a));
            prop_assert!(g.connected(*a, *b));
        }
    }

    #[test]
    fn hub_membership_connects_all_members(members in prop::collection::vec(arb_plmn(), 2..12)) {
        let mut g = AgreementGraph::new();
        let hub = g.add_hub();
        for m in &members {
            g.join_hub(hub, *m);
        }
        for a in &members {
            for b in &members {
                prop_assert!(g.connected(*a, *b));
            }
        }
    }

    #[test]
    fn admission_is_self_allowing_and_needs_an_agreement_abroad(a in arb_plmn(), b in arb_plmn()) {
        let mut g = AgreementGraph::new();
        prop_assert!(g.admits(a, a));
        let abroad = match (Country::by_mcc(a.mcc), Country::by_mcc(b.mcc)) {
            (Some(ca), Some(cb)) => ca.iso != cb.iso,
            _ => a.mcc != b.mcc,
        };
        if abroad {
            prop_assert!(!g.admits(a, b));
            g.add_bilateral(a, b);
            prop_assert!(g.admits(a, b) && g.admits(b, a));
        }
    }
}
