//! Alarm writes through a running server: `InstallAlarm` and
//! `RemoveAlarm` frames sent over the in-process transport (so every
//! frame crosses the wire codec), checked by their effect on trigger
//! checks and on the safe regions the shard workers issue afterwards.
//!
//! The server runs four shards on a `VirtualClock`. The alarm under
//! test spans cells 0 and 1 of a 10 × 10 grid, which
//! [`sa_server::shard_of_index`] maps to two different shards, so both
//! shards' workers must see the write.
//!
//! Every encoded response frame of the run is folded into one FNV-1a
//! digest and pinned across commits, in the style of
//! `crates/verify/tests/pinned_digests.rs`: a refactor of where the
//! server keeps its alarms must not change a single frame. A deliberate
//! protocol change moves the digest; re-record it then, and say why in
//! the commit.

use sa_alarms::{AlarmId, AlarmScope, AlarmTarget, SpatialAlarm, SubscriberId};
use sa_core::{BitmapSafeRegion, PyramidConfig, SafeRegion};
use sa_geometry::{Grid, Point, Rect};
use sa_server::server::error_code;
use sa_server::wire::{dequantize_m, quantize_m};
use sa_server::{
    quantize_rect, shard_of_index, InProcTransport, Request, Response, Server, ServerConfig,
    StrategySpec, Transport, VirtualClock,
};
use std::sync::Arc;

const NUM_SHARDS: usize = 4;
const PBSR_HEIGHT: u32 = 3;
/// The alarm under test: public, spanning cells 0 and 1 along the
/// bottom row of the grid.
const ALARM: u32 = 2;

/// Pinned FNV-1a digest of every response frame [`run`] receives.
const PINNED_DIGEST: u64 = 0xd31c_6764_7f21_afec;

fn alarm_rect() -> Rect {
    Rect::new(800.0, 300.0, 1_200.0, 700.0).unwrap()
}

fn grid() -> Grid {
    Grid::new(Rect::new(0.0, 0.0, 10_000.0, 10_000.0).unwrap(), 1_000.0).unwrap()
}

/// Two alarms away from the cells under test, so the installed alarm's
/// id is 2 and the index is not empty before the write.
fn initial_alarms() -> Vec<SpatialAlarm> {
    let mk = |id: u64, rect: Rect, scope: AlarmScope| {
        SpatialAlarm::new(AlarmId(id), rect, AlarmTarget::Static(rect.center()), scope)
    };
    vec![
        mk(
            0,
            Rect::new(5_200.0, 5_200.0, 5_600.0, 5_600.0).unwrap(),
            AlarmScope::Public { owner: SubscriberId(90) },
        ),
        mk(
            1,
            Rect::new(7_200.0, 2_200.0, 7_500.0, 2_500.0).unwrap(),
            AlarmScope::Private { owner: SubscriberId(91) },
        ),
    ]
}

/// One client session plus the digest every response frame feeds.
struct Session {
    transport: InProcTransport,
    seq: u32,
}

impl Session {
    fn open(server: &Arc<Server>, user: u32, strategy: StrategySpec, digest: &mut Fnv) -> Session {
        let mut s = Session { transport: InProcTransport::connect(Arc::clone(server)), seq: 0 };
        let resps = s.send(Request::Hello { seq: 0, user, strategy }, digest);
        assert_eq!(resps, vec![Response::Ack { seq: 0 }]);
        s
    }

    fn send(&mut self, req: Request, digest: &mut Fnv) -> Vec<Response> {
        let resps = self.transport.request(req).expect("in-process exchange");
        for r in &resps {
            digest.frame(&r.encode());
        }
        resps
    }

    fn next_seq(&mut self) -> u32 {
        self.seq += 1;
        self.seq
    }

    fn update(&mut self, x: f64, y: f64, digest: &mut Fnv) -> Vec<Response> {
        let seq = self.next_seq();
        self.send(
            Request::LocationUpdate { seq, x_fx: quantize_m(x), y_fx: quantize_m(y), motion: 0 },
            digest,
        )
    }

    fn install(
        &mut self,
        alarm: u32,
        public: bool,
        owner: u32,
        rect: Rect,
        digest: &mut Fnv,
    ) -> Vec<Response> {
        let seq = self.next_seq();
        let flags = (owner << 1) | u32::from(public);
        self.send(Request::InstallAlarm { seq, alarm, flags, rect: quantize_rect(rect) }, digest)
    }

    fn remove(&mut self, alarm: u32, digest: &mut Fnv) -> Vec<Response> {
        let seq = self.next_seq();
        self.send(Request::RemoveAlarm { seq, alarm }, digest)
    }
}

/// FNV-1a over length-prefixed frames, so frame boundaries count.
struct Fnv(u64);

impl Fnv {
    fn new() -> Fnv {
        Fnv(0xcbf2_9ce4_8422_2325)
    }

    fn frame(&mut self, bytes: &[u8]) {
        let len = (bytes.len() as u32).to_be_bytes();
        for &b in len.iter().chain(bytes) {
            self.0 ^= u64::from(b);
            self.0 = self.0.wrapping_mul(0x0000_0100_0000_01b3);
        }
    }
}

fn deliveries(resps: &[Response]) -> Vec<u32> {
    resps
        .iter()
        .filter_map(|r| match r {
            Response::TriggerDelivery { alarm, .. } => Some(*alarm),
            _ => None,
        })
        .collect()
}

fn terminal(resps: &[Response]) -> &Response {
    resps.last().expect("every exchange ends in a terminal response")
}

fn bitmap(grid: &Grid, resps: &[Response]) -> BitmapSafeRegion {
    match terminal(resps) {
        Response::BitmapInstall { cell, bits, .. } => BitmapSafeRegion::from_wire_bits(
            grid.cell_rect(grid.cell_at_index(u64::from(*cell))),
            PyramidConfig::three_by_three(PBSR_HEIGHT),
            bits,
        )
        .expect("the bitmap decodes at the requested height"),
        other => panic!("expected a bitmap install, got {other:?}"),
    }
}

fn rect(resps: &[Response]) -> Rect {
    match terminal(resps) {
        Response::RectInstall { rect, .. } => Rect::new(
            dequantize_m(rect[0]),
            dequantize_m(rect[1]),
            dequantize_m(rect[2]),
            dequantize_m(rect[3]),
        )
        .unwrap(),
        other => panic!("expected a rect install, got {other:?}"),
    }
}

fn error(resps: &[Response]) -> u32 {
    match terminal(resps) {
        Response::Error { code, .. } => *code,
        other => panic!("expected an error, got {other:?}"),
    }
}

/// True when `r`'s interior overlaps the alarm region's interior — the
/// one thing a sound safe region must never do.
fn overlaps_alarm(r: Rect) -> bool {
    let a = alarm_rect();
    r.min_x() < a.max_x() && a.min_x() < r.max_x() && r.min_y() < a.max_y() && a.min_y() < r.max_y()
}

/// The `(sa_alarm_index_delta, sa_alarm_index_dead)` gauges.
fn index_gauges(server: &Server) -> (i64, i64) {
    let snap = server.registry().snapshot();
    let gauge = |name| snap.gauge(name, &[]).expect("the gauge is registered");
    (gauge("sa_alarm_index_delta"), gauge("sa_alarm_index_dead"))
}

/// Runs the whole write scenario and returns the response digest.
fn run() -> u64 {
    let grid = grid();
    let cells: Vec<usize> = grid
        .cells_intersecting(alarm_rect())
        .map(|c| shard_of_index(grid.cell_index(c), NUM_SHARDS))
        .collect();
    assert_eq!(cells, vec![0, 1], "the alarm must span two shards' cells");

    let server = Server::start_with_clock(
        grid.clone(),
        initial_alarms(),
        30.0,
        ServerConfig { num_shards: NUM_SHARDS, queue_capacity: 16 },
        VirtualClock::shared(),
    );
    let mut digest = Fnv::new();
    let mut publisher = Session::open(&server, 50, StrategySpec::Mwpsr, &mut digest);

    // Install the public alarm over the wire.
    let resps = publisher.install(ALARM, true, 50, alarm_rect(), &mut digest);
    assert!(matches!(terminal(&resps), Response::Ack { .. }), "install: {resps:?}");
    assert_eq!(index_gauges(&server), (1, 0), "one delta alarm, nothing dead");

    // Regions issued in both touched cells are blocked by the alarm
    // before anyone fires it.
    let mut pbsr =
        Session::open(&server, 1, StrategySpec::Pbsr { height: PBSR_HEIGHT }, &mut digest);
    let resps = pbsr.update(500.0, 500.0, &mut digest);
    assert!(deliveries(&resps).is_empty());
    let region = bitmap(&grid, &resps);
    assert!(region.contains(Point::new(500.0, 500.0)), "the region holds its subscriber");
    for p in [(900.0, 500.0), (810.0, 310.0), (990.0, 690.0)] {
        assert!(!region.contains(Point::new(p.0, p.1)), "PBSR region covers alarm point {p:?}");
    }
    let mut mwpsr = Session::open(&server, 2, StrategySpec::Mwpsr, &mut digest);
    let resps = mwpsr.update(1_500.0, 500.0, &mut digest);
    assert!(deliveries(&resps).is_empty());
    let r = rect(&resps);
    assert!(r.contains_point(Point::new(1_500.0, 500.0)));
    assert!(!overlaps_alarm(r), "MWPSR region {r:?} overlaps the alarm");
    // The OPT push of a touched cell carries the alarm as relevant.
    let mut opt = Session::open(&server, 4, StrategySpec::Opt, &mut digest);
    let resps = opt.update(1_500.0, 900.0, &mut digest);
    match terminal(&resps) {
        Response::AlarmPush { alarms, .. } => {
            assert_eq!(alarms.len(), 1, "push: {alarms:?}");
            assert_eq!((alarms[0].alarm, alarms[0].relevant), (ALARM, true));
            assert_eq!(alarms[0].rect, quantize_rect(alarm_rect()));
        }
        other => panic!("expected an alarm push, got {other:?}"),
    }

    // Updates inside the alarm from each touched cell fire it exactly once.
    assert_eq!(deliveries(&pbsr.update(900.0, 500.0, &mut digest)), vec![ALARM]);
    assert!(deliveries(&pbsr.update(950.0, 520.0, &mut digest)).is_empty());
    assert_eq!(deliveries(&mwpsr.update(1_100.0, 500.0, &mut digest)), vec![ALARM]);
    assert!(deliveries(&mwpsr.update(1_150.0, 480.0, &mut digest)).is_empty());

    // Remove it; fresh subscribers inside it neither fire nor get a
    // region shaped around it.
    let resps = publisher.remove(ALARM, &mut digest);
    assert!(matches!(terminal(&resps), Response::Ack { .. }), "remove: {resps:?}");
    assert_eq!(index_gauges(&server), (1, 1), "the removed delta alarm is dead");
    let mut fresh_pbsr =
        Session::open(&server, 3, StrategySpec::Pbsr { height: PBSR_HEIGHT }, &mut digest);
    let resps = fresh_pbsr.update(1_050.0, 500.0, &mut digest);
    assert!(deliveries(&resps).is_empty(), "a removed alarm fired: {resps:?}");
    assert!(bitmap(&grid, &resps).is_whole_cell_free(), "cell 1 is free after the remove");
    let mut fresh_mwpsr = Session::open(&server, 5, StrategySpec::Mwpsr, &mut digest);
    let resps = fresh_mwpsr.update(900.0, 500.0, &mut digest);
    assert!(deliveries(&resps).is_empty(), "a removed alarm fired: {resps:?}");
    assert_eq!(rect(&resps), grid.cell_rect(grid.cell_of(Point::new(900.0, 500.0))));

    // A repeated remove, an unknown id and a gapped install id are all
    // unknown alarms.
    assert_eq!(error(&publisher.remove(ALARM, &mut digest)), error_code::UNKNOWN_ALARM);
    assert_eq!(error(&publisher.remove(999, &mut digest)), error_code::UNKNOWN_ALARM);
    let far = Rect::new(3_100.0, 3_100.0, 3_300.0, 3_300.0).unwrap();
    assert_eq!(
        error(&publisher.install(ALARM + 5, true, 50, far, &mut digest)),
        error_code::UNKNOWN_ALARM
    );
    // The rejected id left the id space where it was.
    let resps = publisher.install(ALARM + 1, false, 3, far, &mut digest);
    assert!(matches!(terminal(&resps), Response::Ack { .. }), "install: {resps:?}");

    server.shutdown();
    digest.0
}

#[test]
fn alarm_writes_reach_every_shard_and_keep_their_digest() {
    let digest = run();
    assert_eq!(run(), digest, "two runs of one build must agree");
    assert_eq!(digest, PINNED_DIGEST, "alarm-write digest drifted: got {digest:#018x}");
}
