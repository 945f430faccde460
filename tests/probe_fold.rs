//! The probe's open-row fold equals a per-event `row_mut` fold.
//!
//! `MnoProbe` folds each device's current (device, day) row outside the
//! catalog and closes it into the catalog when the device's day advances
//! or when the catalog is read. This suite checks it against an
//! independent reference that calls `DevicesCatalog::row_mut` once per
//! event, on random streams with interleaved devices, days that go
//! backwards for a device, roaming-label changes within one day, catalog
//! reads mid-stream and `fork_empty` + `absorb` splits at arbitrary
//! points. Catalogs are compared as canonical JSONL bytes, so every
//! first-touch label and every f64 mobility bit must agree.

use proptest::prelude::*;
use where_things_roam::model::country::Country;
use where_things_roam::model::hash::{anonymize_u64, AnonKey};
use where_things_roam::model::ids::{Imei, Imsi, Plmn, Tac};
use where_things_roam::model::operators::{well_known, OperatorRegistry};
use where_things_roam::model::rat::{Rat, RatSet};
use where_things_roam::model::roaming::RoamingLabel;
use where_things_roam::model::time::{Day, SimTime};
use where_things_roam::probes::catalog::DevicesCatalog;
use where_things_roam::probes::io;
use where_things_roam::probes::mno::MnoProbe;
use where_things_roam::radio::geo::{CountryGeometry, GeoPoint};
use where_things_roam::radio::network::{CoverageFaults, RadioNetwork};
use where_things_roam::radio::sector::GridSpacing;
use where_things_roam::sim::events::{
    DataSession, ProcedureResult, ProcedureType, SignalingEvent, SimEvent, VoiceCall, VoiceKind,
};
use where_things_roam::sim::world::EventSink;

const MNO: Plmn = well_known::UK_STUDIED_MNO;
const NL: Plmn = well_known::NL_SMART_METER_HMNO;
const ES: Plmn = well_known::ES_HMNO;
/// An MVNO riding on the studied MNO (`V*` labels).
const MVNO: Plmn = Plmn::of(234, 31);
const WINDOW: u32 = 6;

fn home_network() -> RadioNetwork {
    RadioNetwork::new(
        MNO,
        RatSet::CONVENTIONAL,
        CountryGeometry::of(Country::by_iso("GB").unwrap()),
        GridSpacing::default(),
        CoverageFaults::NONE,
    )
}

fn registry() -> OperatorRegistry {
    OperatorRegistry::standard(3)
}

/// One event from a proptest row. Devices cycle through a home SIM (its
/// data and voice abroad turn an `HH` day into an `HA` one), an inbound
/// NL SIM and an MVNO SIM; `kind` picks the record type, the RAT, the
/// outcome, whether the device is abroad and one of 35 sector positions.
fn build_event(net: &RadioNetwork, device: u8, day: u8, hour: u8, kind: u8, seq: u64) -> SimEvent {
    let device = u64::from(device);
    let time =
        SimTime::from_secs(u64::from(day) * 86_400 + u64::from(hour) * 3_600 + (seq * 13) % 3_600);
    let imsi = match device % 3 {
        0 => Imsi::new(MNO, 1_000 + device).unwrap(),
        1 => Imsi::new(NL, 5_000_000_000 + device).unwrap(),
        _ => Imsi::new(MVNO, 2_000 + device).unwrap(),
    };
    let imei = Imei::new(Tac::new(35_000_000 + device as u32).unwrap(), device as u32).unwrap();
    let visited = if kind & 0x40 != 0 { ES } else { MNO };
    let rat = if kind % 2 == 0 { Rat::G2 } else { Rat::G4 };
    let at = GeoPoint::new(
        50.5 + f64::from(kind % 7) * 0.37,
        -3.0 + f64::from(kind / 7 % 5) * 0.61,
    );
    let sector = net.grid().sector_at(at, rat);
    match kind % 3 {
        0 => SimEvent::Signaling(SignalingEvent {
            time,
            device,
            imsi,
            imei,
            visited,
            sector: (kind & 0x80 == 0).then_some(sector),
            rat,
            procedure: ProcedureType::Authentication,
            result: if kind % 5 == 0 {
                ProcedureResult::RoamingNotAllowed
            } else {
                ProcedureResult::Ok
            },
        }),
        1 => SimEvent::Data(DataSession {
            time,
            device,
            imsi,
            imei,
            visited,
            sector,
            rat,
            apn: if kind % 4 == 1 {
                "internet.albion.gb".parse().unwrap()
            } else {
                "smhp.centricaplc.com.mnc004.mcc204.gprs".parse().unwrap()
            },
            duration_secs: 30,
            bytes_up: 500 + u64::from(kind) * 10,
            bytes_down: 100 + u64::from(hour),
        }),
        _ => SimEvent::Voice(VoiceCall {
            time,
            device,
            imsi,
            imei,
            visited,
            sector,
            rat,
            kind: if kind % 2 == 0 {
                VoiceKind::SmsLike
            } else {
                VoiceKind::Call
            },
            duration_secs: u32::from(kind) * 3,
        }),
    }
}

/// The reference fold: one `row_mut` per visible event, under the
/// visibility and labelling rules the probe documents.
fn reference_event(
    catalog: &mut DevicesCatalog,
    net: &RadioNetwork,
    registry: &OperatorRegistry,
    event: &SimEvent,
) {
    let (imsi, imei, visited, time, rat) = match event {
        SimEvent::Signaling(s) => (s.imsi, s.imei, s.visited, s.time, s.rat),
        SimEvent::Voice(v) => (v.imsi, v.imei, v.visited, v.time, v.rat),
        SimEvent::Data(d) => (d.imsi, d.imei, d.visited, d.time, d.rat),
    };
    if matches!(event, SimEvent::Signaling(_)) && visited != MNO {
        return;
    }
    let Some(label) = RoamingLabel::derive(MNO, registry, imsi.plmn(), visited) else {
        return;
    };
    let apn = match event {
        SimEvent::Data(d) => Some(catalog.intern_apn(&d.apn.full())),
        _ => None,
    };
    let user = anonymize_u64(AnonKey::FIXED, imsi.packed());
    let row = catalog.row_mut(user, Day(time.day().0), imsi.plmn(), imei.tac(), label);
    row.hourly[time.hour_of_day() as usize] += 1;
    row.visited.insert(visited.packed());
    let sector = match event {
        SimEvent::Signaling(s) => {
            row.events += 1;
            if s.result.is_ok() {
                row.radio_flags.record(rat, false, false);
            } else {
                row.failed_events += 1;
            }
            s.sector
        }
        SimEvent::Voice(v) => {
            match v.kind {
                VoiceKind::Call => {
                    row.calls += 1;
                    row.call_secs += u64::from(v.duration_secs);
                }
                VoiceKind::SmsLike => row.sms += 1,
            }
            row.radio_flags.record(rat, false, true);
            (visited == MNO).then_some(v.sector)
        }
        SimEvent::Data(d) => {
            row.data_sessions += 1;
            row.bytes_up += d.bytes_up;
            row.bytes_down += d.bytes_down;
            row.apns.extend(apn);
            row.radio_flags.record(rat, true, false);
            (visited == MNO).then_some(d.sector)
        }
    };
    if let Some(sector) = sector {
        row.sector_set.insert(sector.raw());
        row.mobility.add(net.sector_position(sector), 1.0);
    }
}

fn canonical_jsonl(mut catalog: DevicesCatalog) -> Vec<u8> {
    catalog.canonicalize();
    let mut bytes = Vec::new();
    io::write_catalog(&mut bytes, &catalog).unwrap();
    bytes
}

/// Builds the event stream, giving each device its own sequence counter.
fn events_of(net: &RadioNetwork, rows: &[(u8, u8, u8, u8)]) -> Vec<SimEvent> {
    let mut seq = [0u64; 8];
    rows.iter()
        .map(|&(device, day, hour, kind)| {
            let s = seq[device as usize];
            seq[device as usize] += 1;
            build_event(net, device, day, hour, kind, s)
        })
        .collect()
}

proptest! {
    /// Any event order, split into `fork_empty` + `absorb` segments at
    /// `cuts` and read mid-stream at `reads`, folds to the same catalog
    /// as per-event `row_mut` calls split at the same `cuts`.
    #[test]
    fn open_row_fold_equals_per_event_row_mut(
        rows in prop::collection::vec((0u8..8, 0u8..WINDOW as u8, 0u8..24, any::<u8>()), 1..160),
        cuts in prop::collection::vec(0usize..160, 0..4),
        reads in prop::collection::vec(0usize..160, 0..4),
    ) {
        let net = home_network();
        let registry = registry();
        let events = events_of(&net, &rows);

        let proto = MnoProbe::new(MNO, registry.clone(), net.clone(), AnonKey::FIXED, WINDOW);
        let mut probe = proto.fork_empty();
        let mut segment = proto.fork_empty();
        let mut reference = DevicesCatalog::new(WINDOW);
        let mut reference_segment = DevicesCatalog::new(WINDOW);
        for (i, event) in events.iter().enumerate() {
            if cuts.contains(&i) {
                probe.absorb(std::mem::replace(&mut segment, proto.fork_empty()));
                reference.merge(std::mem::replace(
                    &mut reference_segment,
                    DevicesCatalog::new(WINDOW),
                ));
            }
            if reads.contains(&i) {
                // A read closes every open row mid-stream.
                let _ = segment.catalog();
            }
            segment.on_event(event);
            reference_event(&mut reference_segment, &net, &registry, event);
        }
        probe.absorb(segment);
        reference.merge(reference_segment);

        let got = canonical_jsonl(probe.into_catalog());
        let want = canonical_jsonl(reference);
        prop_assert_eq!(String::from_utf8(got).unwrap(), String::from_utf8(want).unwrap());
    }
}
