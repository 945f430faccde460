//! Matrix behavior == legacy behavior (the PR-8 contract).
//!
//! The `wtr_sim::behavior` interpreter replaced the hand-coded wake
//! branches of `DeviceAgent`; `legacy_matrix` compiles each device spec
//! into matrix form with a draw-order-preserving layout. This suite pins:
//!
//! 1. **Per vertical**: for every [`Vertical`], the matrix agent emits the
//!    event stream the hand-coded branches emitted — including
//!    sticky-failure, switch-happy and flaky-presence variants of each
//!    class. The digests were captured from the hand-coded branches, and
//!    checked equal to the matrix path's, while both paths existed. At
//!    scenario scale the catalog golden in `tests/shard_determinism.rs`
//!    (captured on the hand-coded path) guards the same property.
//! 2. **Validation** (proptest): `BehaviorMatrix::new`/`validate` rejects
//!    every corruption of a well-formed matrix, and accepts + roundtrips
//!    (serde, byte-stable) every well-formed parameterization.

use proptest::prelude::*;
use where_things_roam::model::country::Country;
use where_things_roam::model::ids::{Imei, Imsi, Plmn, Tac};
use where_things_roam::model::rat::RatSet;
use where_things_roam::model::time::SimTime;
use where_things_roam::model::vertical::Vertical;
use where_things_roam::radio::geo::CountryGeometry;
use where_things_roam::radio::network::{CoverageFaults, RadioNetwork};
use where_things_roam::radio::sector::GridSpacing;
use where_things_roam::sim::behavior::{
    profile_matrix, states, BehaviorMatrix, BehaviorOptions, BehaviorRow, EmissionSpec, PlanTarget,
    StateId, MAX_PLAN_TARGETS,
};
use where_things_roam::sim::device::{DeviceAgent, DeviceSpec, ItineraryLeg, PresenceModel};
use where_things_roam::sim::engine::Engine;
use where_things_roam::sim::events::{ProcedureResult, SimEvent};
use where_things_roam::sim::traffic::TrafficProfile;
use where_things_roam::sim::world::{AllowAllPolicy, NetworkDirectory, RoamingWorld, VecSink};
use where_things_roam::sim::MobilityModel;

fn uk_geom() -> CountryGeometry {
    CountryGeometry::of(Country::by_iso("GB").expect("GB exists"))
}

fn directory() -> NetworkDirectory {
    let mut dir = NetworkDirectory::new();
    for plmn in [Plmn::of(234, 10), Plmn::of(234, 15), Plmn::of(234, 20)] {
        dir.add(
            "GB",
            RadioNetwork::new(
                plmn,
                RatSet::CONVENTIONAL,
                uk_geom(),
                GridSpacing::default(),
                CoverageFaults::NONE,
            ),
        );
    }
    dir
}

fn vertical_spec(vertical: Vertical, index: u64, days: u32) -> DeviceSpec {
    let traffic = TrafficProfile::for_vertical(vertical);
    DeviceSpec {
        index,
        imsi: Imsi::new(Plmn::of(234, 10), index).unwrap(),
        imei: Imei::new(Tac::new(35_000_000).unwrap(), index as u32 % 1_000_000).unwrap(),
        vertical,
        radio_caps: RatSet::CONVENTIONAL,
        apns: vec!["internet.mnc010.mcc234.gprs".parse().unwrap()],
        data_enabled: traffic.data_sessions_per_day > 0.0,
        voice_enabled: traffic.voice_per_day > 0.0,
        traffic,
        presence: PresenceModel::always(days),
        itinerary: vec![ItineraryLeg {
            from_day: 0,
            country_iso: "GB".into(),
            mobility: MobilityModel::stationary_in(&uk_geom(), index),
        }],
        switch_propensity: 0.0,
        event_failure_prob: 0.0,
        sticky_failure: None,
    }
}

/// Runs the specs through matrix-driven agents and returns the event
/// stream.
fn run_matrix_path(specs: &[DeviceSpec], days: u32) -> Vec<SimEvent> {
    let world = RoamingWorld::new(directory(), Box::new(AllowAllPolicy), VecSink::default(), 7);
    let mut engine = Engine::new(world, SimTime::from_secs(days as u64 * 86_400));
    for spec in specs {
        engine.add_agent(DeviceAgent::new(spec.clone(), 7));
    }
    engine.run().sink.events
}

/// FNV-1a digest of an event stream: serialized events in emission
/// order, newline-terminated.
fn stream_digest(events: &[SimEvent]) -> u64 {
    let mut h = 0xcbf2_9ce4_8422_2325u64;
    for e in events {
        let line = serde_json::to_string(e).unwrap();
        for b in line.bytes().chain([b'\n']) {
            h ^= u64::from(b);
            h = h.wrapping_mul(0x0100_0000_01b3);
        }
    }
    h
}

/// Per vertical, in [`Vertical::ALL`] order: (event count, stream digest)
/// of the hand-coded wake branches on the four-device spec set below.
const LEGACY_STREAMS: [(Vertical, usize, u64); 9] = [
    (Vertical::Smartphone, 14_791, 0xc57d_ca23_3c25_bd6d),
    (Vertical::FeaturePhone, 392, 0xeff1_f821_4d08_7bd8),
    (Vertical::SmartMeter, 242, 0x3aaa_6797_7af7_7178),
    (Vertical::ConnectedCar, 3_639, 0xf9d0_7407_b72b_c3b3),
    (Vertical::AssetTracker, 933, 0x0010_0889_e276_9b77),
    (Vertical::Wearable, 635, 0xd70a_215c_0b44_fa1c),
    (Vertical::PaymentTerminal, 2_535, 0xfe35_b0c8_4c29_aa41),
    (Vertical::SecurityAlarm, 386, 0x2e1c_b6fe_c1ba_4225),
    (Vertical::IndustrialSensor, 540, 0x4fc0_ccce_1606_bafa),
];

#[test]
fn every_vertical_matrix_equals_legacy() {
    const DAYS: u32 = 6;
    assert_eq!(LEGACY_STREAMS.map(|(v, _, _)| v), Vertical::ALL);
    for (i, &(vertical, len, digest)) in LEGACY_STREAMS.iter().enumerate() {
        let base = i as u64 * 10;
        // Base class + the variants that exercise every wake branch:
        // misprovisioned (sticky attach failure), switch-happy with
        // transient failures, and a flaky presence window.
        let mut sticky = vertical_spec(vertical, base + 1, DAYS);
        sticky.sticky_failure = Some(ProcedureResult::UnknownSubscription);
        let mut switcher = vertical_spec(vertical, base + 2, DAYS);
        switcher.switch_propensity = 1.0;
        switcher.event_failure_prob = 0.1;
        let mut flaky = vertical_spec(vertical, base + 3, DAYS);
        flaky.presence = PresenceModel {
            first_day: 1,
            last_day: DAYS - 1,
            daily_active_prob: 0.5,
        };
        let specs = vec![vertical_spec(vertical, base, DAYS), sticky, switcher, flaky];
        let events = run_matrix_path(&specs, DAYS);
        assert_eq!(events.len(), len, "vertical {vertical:?} event count");
        assert_eq!(
            stream_digest(&events),
            digest,
            "vertical {vertical:?} diverged"
        );
    }
}

// ---------------------------------------------------------------------
// Validation + serde (proptest).
// ---------------------------------------------------------------------

fn base_matrix(vertical_idx: usize) -> BehaviorMatrix {
    let vertical = Vertical::ALL[vertical_idx % Vertical::ALL.len()];
    profile_matrix(
        &TrafficProfile::for_vertical(vertical),
        &BehaviorOptions::default(),
    )
}

/// One deliberate corruption of a valid matrix. Each arm breaks exactly
/// one invariant `validate` checks.
fn corrupt(m: &mut BehaviorMatrix, kind: usize, row: usize, bad: f64) {
    let row = row % m.rows.len();
    match kind {
        0 => m.rows.clear(),
        1 => m.entry = StateId(m.rows.len() as u32),
        2 => m.rows[row].event_rate = bad,
        3 => m.rows[row].transitions.clear(),
        4 => m.rows[row].transitions = vec![(StateId(m.rows.len() as u32), 1.0)],
        5 => {
            m.rows[row].transitions = vec![(StateId(0), 0.0), (StateId(1), 0.0)];
        }
        6 => {
            m.rows[row].transitions = vec![(StateId(0), 1.0), (StateId(1), -1.0)];
        }
        7 => {
            if let EmissionSpec::Plan(plan) = &mut m.rows[0].emission {
                plan.daily_active_prob = 1.0 + bad.abs().max(0.001);
            } else {
                unreachable!("row 0 of a compiled matrix is the plan row");
            }
        }
        8 => {
            if let EmissionSpec::Plan(plan) = &mut m.rows[0].emission {
                plan.targets = vec![
                    PlanTarget {
                        state: states::SIGNALING,
                        scheduled: true,
                    };
                    MAX_PLAN_TARGETS + 1
                ];
            }
        }
        9 => m.params.per_device_sigma = -bad.abs() - 0.001,
        10 => m.params.sticky_breadth_weights = vec![-1.0, 2.0],
        _ => m.params.reselect_rotate_prob = 1.0 + bad.abs().max(0.001),
    }
}

proptest! {
    /// Every corruption of a valid matrix is rejected by `validate`, and
    /// `BehaviorMatrix::new` refuses to construct it.
    #[test]
    fn malformed_matrices_are_rejected(
        vertical_idx in 0usize..Vertical::ALL.len(),
        kind in 0usize..12,
        row in 0usize..4,
        bad in prop_oneof![Just(-1.0f64), Just(f64::NAN), Just(f64::INFINITY), -1e6f64..-0.001],
    ) {
        let mut m = base_matrix(vertical_idx);
        prop_assert!(m.validate().is_ok());
        corrupt(&mut m, kind, row, bad);
        prop_assert!(m.validate().is_err(), "corruption {kind} accepted");
        prop_assert!(
            BehaviorMatrix::new(m.params.clone(), m.rows.clone(), m.entry).is_err(),
            "constructor accepted corruption {kind}"
        );
    }

    /// Well-formed parameterizations are accepted and serde-roundtrip to
    /// the identical matrix *and* identical bytes (canonical form).
    #[test]
    fn valid_matrices_roundtrip_byte_stable(
        vertical_idx in 0usize..Vertical::ALL.len(),
        daily_active_prob in 0.0f64..1.0,
        switch_propensity in 0.0f64..1.0,
        event_failure_prob in 0.0f64..1.0,
        data_enabled in any::<bool>(),
        voice_enabled in any::<bool>(),
        apn_count in 1u32..4,
        sticky in any::<bool>(),
    ) {
        let vertical = Vertical::ALL[vertical_idx];
        let opts = BehaviorOptions {
            daily_active_prob,
            switch_propensity,
            event_failure_prob,
            sticky_failure: sticky.then_some(ProcedureResult::UnknownSubscription),
            data_enabled,
            voice_enabled,
            apn_count,
        };
        let m = profile_matrix(&TrafficProfile::for_vertical(vertical), &opts);
        prop_assert!(m.validate().is_ok());
        let json = serde_json::to_string(&m).unwrap();
        let back: BehaviorMatrix = serde_json::from_str(&json).unwrap();
        prop_assert!(back.validate().is_ok());
        prop_assert_eq!(&back, &m);
        prop_assert_eq!(serde_json::to_string(&back).unwrap(), json);
    }
}

/// A silent row that branches is accepted — the interpreter supports
/// richer shapes than the compiler emits today.
#[test]
fn branching_silent_rows_validate() {
    let mut m = base_matrix(0);
    m.rows.push(BehaviorRow {
        transitions: vec![
            (states::SIGNALING, 0.7),
            (states::DATA, 0.2),
            (states::VOICE, 0.1),
        ],
        event_rate: 0.5,
        emission: EmissionSpec::Silent,
    });
    assert!(m.validate().is_ok());
}
