//! Per-subscriber trigger state through a running server: an alarm
//! fires once per subscriber, and only that subscriber's safe regions,
//! OPT pushes and safe periods stop treating it as an obstacle. Every
//! frame crosses the wire codec over the in-process transport.
//!
//! The server runs on a `VirtualClock` over a 10 × 10 grid. Public
//! alarm X sits in cell 0, where subscribers A and B each hold one
//! session per strategy; public alarm Y sits in cell 2, where
//! subscriber C receives it as fired through a `HandoffImport`.
//!
//! Every encoded response frame of the run is folded into one FNV-1a
//! digest and pinned across commits, in the style of
//! `alarm_writes.rs`: a refactor of where the server keeps its fired
//! alarms must not change a single frame. A deliberate protocol change
//! moves the digest; re-record it then, and say why in the commit.

use sa_alarms::{AlarmId, AlarmScope, AlarmTarget, SpatialAlarm, SubscriberId};
use sa_core::{BitmapSafeRegion, PyramidConfig, SafeRegion};
use sa_geometry::{Grid, Point, Rect};
use sa_server::wire::{dequantize_m, quantize_m, TraceCtxExt};
use sa_server::{
    InProcTransport, Request, Response, Server, ServerConfig, SessionState, StrategySpec,
    Transport, VirtualClock,
};
use std::sync::Arc;

const PBSR_HEIGHT: u32 = 3;
const V_MAX: f64 = 30.0;
/// Public alarm in cell 0, fired by subscriber A.
const X: u32 = 0;
/// Public alarm in cell 2, imported as fired for subscriber C.
const Y: u32 = 1;
const A: u32 = 1;
const B: u32 = 2;
const C: u32 = 3;
/// A point of cell 0 outside X.
const OUTSIDE_X: (f64, f64) = (100.0, 100.0);

/// Pinned FNV-1a digest of every response frame [`run`] receives.
const PINNED_DIGEST: u64 = 0x696c_bf32_7277_c260;

fn x_rect() -> Rect {
    Rect::new(300.0, 300.0, 600.0, 600.0).unwrap()
}

fn y_rect() -> Rect {
    Rect::new(2_300.0, 300.0, 2_600.0, 600.0).unwrap()
}

fn grid() -> Grid {
    Grid::new(Rect::new(0.0, 0.0, 10_000.0, 10_000.0).unwrap(), 1_000.0).unwrap()
}

fn alarms() -> Vec<SpatialAlarm> {
    let mk = |id: u32, rect: Rect, owner: u32| {
        SpatialAlarm::new(
            AlarmId(u64::from(id)),
            rect,
            AlarmTarget::Static(rect.center()),
            AlarmScope::Public { owner: SubscriberId(owner) },
        )
    };
    vec![mk(X, x_rect(), 90), mk(Y, y_rect(), 91)]
}

fn strategies() -> [StrategySpec; 4] {
    [
        StrategySpec::Pbsr { height: PBSR_HEIGHT },
        StrategySpec::Mwpsr,
        StrategySpec::Opt,
        StrategySpec::SafePeriod,
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

    fn id(&self) -> u32 {
        self.transport.session()
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

    fn update(&mut self, (x, y): (f64, f64), digest: &mut Fnv) -> Vec<Response> {
        let seq = self.next_seq();
        self.send(
            Request::LocationUpdate { seq, x_fx: quantize_m(x), y_fx: quantize_m(y), motion: 0 },
            digest,
        )
    }

    /// The fired alarms a handoff export of session `target` carries.
    fn export_fired(&mut self, target: u32, digest: &mut Fnv) -> Vec<u32> {
        let seq = self.next_seq();
        let req = Request::HandoffExport { seq, session: target, trace: TraceCtxExt::default() };
        match terminal(&self.send(req, digest)) {
            Response::SessionState { state, .. } => state.fired.clone(),
            other => panic!("expected a session state, got {other:?}"),
        }
    }

    fn import(&mut self, state: SessionState, digest: &mut Fnv) -> Vec<Response> {
        let seq = self.next_seq();
        let session = self.id();
        self.send(
            Request::HandoffImport { seq, session, state, trace: TraceCtxExt::default() },
            digest,
        )
    }

    fn notify(&mut self, alarm: u32, digest: &mut Fnv) -> Vec<Response> {
        let seq = self.next_seq();
        self.send(Request::TriggerNotify { seq, alarm }, digest)
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

fn is_ack(resps: &[Response]) -> bool {
    matches!(terminal(resps), Response::Ack { .. })
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

/// `(alarm, relevant)` of every alarm an OPT push carries.
fn pushed(resps: &[Response]) -> Vec<(u32, bool)> {
    match terminal(resps) {
        Response::AlarmPush { alarms, .. } => {
            alarms.iter().map(|a| (a.alarm, a.relevant)).collect()
        }
        other => panic!("expected an alarm push, got {other:?}"),
    }
}

fn period_ms(resps: &[Response]) -> u32 {
    match terminal(resps) {
        Response::SafePeriodGrant { period_ms } => *period_ms,
        other => panic!("expected a safe-period grant, got {other:?}"),
    }
}

/// The safe period the server grants at `from` when `alarm` is the
/// nearest unfired alarm.
fn period_to(alarm: Rect, from: (f64, f64)) -> u32 {
    let p = Point::new(dequantize_m(quantize_m(from.0)), dequantize_m(quantize_m(from.1)));
    (alarm.distance_to_point(p) / V_MAX * 1_000.0).floor() as u32
}

/// True when `r`'s interior overlaps `alarm`'s interior.
fn overlaps(r: Rect, alarm: Rect) -> bool {
    r.min_x() < alarm.max_x()
        && alarm.min_x() < r.max_x()
        && r.min_y() < alarm.max_y()
        && alarm.min_y() < r.max_y()
}

/// True when a bitmap region keeps out of X at three probe points.
fn blocks_x(region: &BitmapSafeRegion) -> bool {
    [(310.0, 310.0), (450.0, 450.0), (590.0, 590.0)]
        .iter()
        .all(|&(x, y)| !region.contains(Point::new(x, y)))
}

/// The `sa_fired_entries` gauge: subscriber–alarm entries recorded.
fn fired_entries(server: &Server) -> i64 {
    server.registry().snapshot().gauge("sa_fired_entries", &[]).expect("the gauge is registered")
}

/// One subscriber's four sessions in cell 0, in [`strategies`] order.
struct Fleet {
    pbsr: Session,
    mwpsr: Session,
    opt: Session,
    safe: Session,
}

impl Fleet {
    fn open(server: &Arc<Server>, user: u32, digest: &mut Fnv) -> Fleet {
        let [pbsr, mwpsr, opt, safe] = strategies().map(|s| Session::open(server, user, s, digest));
        Fleet { pbsr, mwpsr, opt, safe }
    }

    fn ids(&self) -> [u32; 4] {
        [self.pbsr.id(), self.mwpsr.id(), self.opt.id(), self.safe.id()]
    }

    /// Updates the MWPSR, OPT and safe-period sessions at `OUTSIDE_X`
    /// and asserts that each answer treats X as `live`.
    fn check_non_pbsr(&mut self, live: bool, digest: &mut Fnv) {
        let grid = grid();
        let resps = self.mwpsr.update(OUTSIDE_X, digest);
        assert!(deliveries(&resps).is_empty());
        let r = rect(&resps);
        assert_eq!(overlaps(r, x_rect()), !live, "MWPSR region {r:?}, X live: {live}");
        if !live {
            assert_eq!(r, grid.cell_rect(grid.cell_of(Point::new(OUTSIDE_X.0, OUTSIDE_X.1))));
        }
        let resps = self.opt.update(OUTSIDE_X, digest);
        assert!(deliveries(&resps).is_empty());
        let want: Vec<(u32, bool)> = if live { vec![(X, true)] } else { Vec::new() };
        assert_eq!(pushed(&resps), want, "OPT push, X live: {live}");
        let resps = self.safe.update(OUTSIDE_X, digest);
        assert!(deliveries(&resps).is_empty());
        let nearest = if live { x_rect() } else { y_rect() };
        assert_eq!(period_ms(&resps), period_to(nearest, OUTSIDE_X), "safe period, X live: {live}");
    }
}

/// Runs the whole scenario and returns the response digest.
fn run() -> u64 {
    let grid = grid();
    let server = Server::start_with_clock(
        grid.clone(),
        alarms(),
        V_MAX,
        ServerConfig { num_shards: 4, queue_capacity: 16 },
        VirtualClock::shared(),
    );
    let mut digest = Fnv::new();
    let mut a = Fleet::open(&server, A, &mut digest);
    let mut b = Fleet::open(&server, B, &mut digest);

    // Before anyone fires, both subscribers see X everywhere.
    for fleet in [&mut a, &mut b] {
        let resps = fleet.pbsr.update(OUTSIDE_X, &mut digest);
        assert!(deliveries(&resps).is_empty());
        assert!(blocks_x(&bitmap(&grid, &resps)), "the first PBSR region must block X");
        fleet.check_non_pbsr(true, &mut digest);
    }

    // A fires X exactly once, whichever of A's sessions stands in it.
    let resps = a.pbsr.update((450.0, 450.0), &mut digest);
    assert_eq!(deliveries(&resps), vec![X]);
    // The quick update that carried the firing refreshes A's region
    // without X: cell 0 holds no other alarm.
    assert!(bitmap(&grid, &resps).is_whole_cell_free(), "A's refreshed region still blocks X");
    let resps = a.pbsr.update((460.0, 460.0), &mut digest);
    assert!(deliveries(&resps).is_empty());
    assert!(is_ack(&resps), "a quick update with no firing is a bare ack: {resps:?}");
    let resps = a.mwpsr.update((500.0, 500.0), &mut digest);
    assert!(deliveries(&resps).is_empty(), "X fired twice for A: {resps:?}");
    assert_eq!(server.stats().triggers, 1);
    assert_eq!(fired_entries(&server), 1);

    // A's next answers drop X; B's keep it.
    a.check_non_pbsr(false, &mut digest);
    b.check_non_pbsr(true, &mut digest);
    assert!(is_ack(&b.pbsr.update(OUTSIDE_X, &mut digest)), "B's PBSR quick update");
    // A cell change and back makes B's PBSR session compute afresh.
    let resps = b.pbsr.update((1_500.0, 500.0), &mut digest);
    assert!(bitmap(&grid, &resps).is_whole_cell_free(), "cell 1 holds no alarm");
    let resps = b.pbsr.update(OUTSIDE_X, &mut digest);
    assert!(blocks_x(&bitmap(&grid, &resps)), "B's PBSR region must still block X");

    // The handoff blob carries each subscriber's own firings.
    let (a_id, b_id) = (a.pbsr.id(), b.pbsr.id());
    assert_eq!(a.mwpsr.export_fired(a_id, &mut digest), vec![X]);
    assert_eq!(a.mwpsr.export_fired(b_id, &mut digest), Vec::<u32>::new());

    // Closing every session of A keeps A's firings: a reconnect inside
    // X neither fires it nor gets a region that blocks it.
    for id in a.ids() {
        assert!(server.close_session(id));
    }
    let mut a_pbsr =
        Session::open(&server, A, StrategySpec::Pbsr { height: PBSR_HEIGHT }, &mut digest);
    let resps = a_pbsr.update((450.0, 450.0), &mut digest);
    assert!(deliveries(&resps).is_empty(), "X fired again after a reconnect: {resps:?}");
    assert!(bitmap(&grid, &resps).is_whole_cell_free(), "the reconnect's region blocks X");
    let mut a_mwpsr = Session::open(&server, A, StrategySpec::Mwpsr, &mut digest);
    let resps = a_mwpsr.update((500.0, 500.0), &mut digest);
    assert!(deliveries(&resps).is_empty(), "X fired again after a reconnect: {resps:?}");
    assert_eq!(rect(&resps), grid.cell_rect(grid.cell_of(Point::new(500.0, 500.0))));
    assert_eq!(a_mwpsr.export_fired(a_mwpsr.id(), &mut digest), vec![X]);

    // An imported firing of Y leaves C's region without Y, and a
    // repeated import changes nothing.
    let near_y = (2_100.0, 500.0);
    let mut c = Session::open(&server, C, StrategySpec::Mwpsr, &mut digest);
    let before = rect(&c.update(near_y, &mut digest));
    assert!(!overlaps(before, y_rect()), "C's region {before:?} overlaps Y before the import");
    let state = SessionState {
        user: C,
        strategy: StrategySpec::Mwpsr,
        last_cell: None,
        delivery_log: Vec::new(),
        fired: vec![Y],
    };
    let y_cell = grid.cell_rect(grid.cell_of(Point::new(near_y.0, near_y.1)));
    for _ in 0..2 {
        assert!(is_ack(&c.import(state.clone(), &mut digest)));
        let resps = c.update(near_y, &mut digest);
        assert!(deliveries(&resps).is_empty());
        assert_eq!(rect(&resps), y_cell, "C's region must drop the imported Y");
        assert_eq!(fired_entries(&server), 2, "a repeated import adds no entry");
    }
    assert!(deliveries(&c.update((2_450.0, 450.0), &mut digest)).is_empty(), "Y fired for C");
    assert_eq!(c.export_fired(c.id(), &mut digest), vec![Y]);
    assert_eq!(server.stats().triggers, 1, "imports are not firings");

    // A client-side notify records B's firing once; a repeat acks.
    assert!(is_ack(&b.opt.notify(X, &mut digest)));
    assert!(is_ack(&b.opt.notify(X, &mut digest)));
    assert_eq!(server.stats().triggers, 2);
    assert_eq!(fired_entries(&server), 3);
    assert_eq!(b.opt.export_fired(b_id, &mut digest), vec![X]);
    b.check_non_pbsr(false, &mut digest);

    server.shutdown();
    digest.0
}

#[test]
fn trigger_state_is_per_subscriber_and_keeps_its_digest() {
    let digest = run();
    assert_eq!(run(), digest, "two runs of one build must agree");
    assert_eq!(digest, PINNED_DIGEST, "trigger-state digest drifted: got {digest:#018x}");
}
