//! Scenario: an online ingestion pipeline with a downstream join.
//!
//! GPS fixes arrive as streams; each vehicle's trace is simplified on the
//! fly by the one-pass SED simplifier (each fix is seen once and a dropped
//! fix is never revisited — the paper's online mode — and every dropped
//! fix stays within ε of the kept path), and the archived result still
//! supports the ridesharing use case from the paper's introduction:
//! finding trajectory pairs that travelled together, via the similarity
//! join — plus hotspot (range) lookups served from a
//! [`qdts::query::QueryEngine`] built over the archive.
//!
//! Run with: `cargo run --release --example online_pipeline`

use qdts::query::join::{similarity_join, JoinParams};
use qdts::query::{EngineConfig, QueryEngine, QueryExecutor};
use qdts::simp::OnePassSed;
use qdts::trajectory::delta::OnlineSimplifier;
use qdts::trajectory::gen::{generate, DatasetSpec, Scale};
use qdts::trajectory::{Cube, Point, PointStore, Trajectory, TrajectoryDb};

fn main() {
    // A fleet, plus two vehicles deliberately convoying.
    let mut fleet: Vec<Trajectory> = generate(&DatasetSpec::chengdu(Scale::Smoke), 99)
        .trajectories()
        .to_vec();
    let lead: Vec<Point> = (0..120)
        .map(|i| {
            Point::new(
                i as f64 * 40.0,
                (i as f64 * 0.2).sin() * 30.0,
                i as f64 * 15.0,
            )
        })
        .collect();
    let wing: Vec<Point> = lead
        .iter()
        .map(|p| Point::new(p.x, p.y + 80.0, p.t))
        .collect();
    let lead_id = fleet.len();
    fleet.push(Trajectory::new(lead).unwrap());
    let wing_id = fleet.len();
    fleet.push(Trajectory::new(wing).unwrap());
    let original = TrajectoryDb::new(fleet).to_store();

    // Online ingestion: every vehicle streams through a one-pass
    // simplifier that keeps each dropped fix within EPS metres (SED).
    const EPS: f64 = 25.0;
    let archived: PointStore = original
        .views()
        .map(|t| {
            let mut s = OnePassSed::new(EPS);
            let mut kept = Vec::new();
            s.begin();
            for p in t.points() {
                s.push(p, &mut kept); // one fix at a time — dropped fixes are gone
            }
            s.finish(&mut kept);
            Trajectory::new(kept).expect("non-empty stream")
        })
        .collect();
    println!(
        "streamed {} vehicles: {} -> {} points ({:.1}x reduction, SED <= {EPS} m)",
        original.len(),
        original.total_points(),
        archived.total_points(),
        original.total_points() as f64 / archived.total_points() as f64
    );

    // The ridesharing question, asked of the *archived* data.
    let params = JoinParams {
        delta: 400.0,
        min_overlap: 600.0,
        step: 30.0,
    };
    let truth = similarity_join(&original, &params);
    let found = similarity_join(&archived, &params);
    println!("co-travelling pairs on original: {truth:?}");
    println!("co-travelling pairs on archive:  {found:?}");
    assert!(
        found.contains(&(lead_id, wing_id)),
        "the convoy must survive online simplification"
    );
    println!("convoy ({lead_id}, {wing_id}) detected in both — online archive keeps the answer");

    // Serve hotspot lookups from the archive: the engine indexes the
    // archived points once, then answers each range query by cube-pruned
    // traversal instead of rescanning every vehicle.
    let engine = QueryEngine::from_store(archived, EngineConfig::octree());
    let convoy_area = Cube::new(0.0, 4_800.0, -120.0, 120.0, 0.0, 1_800.0);
    let vehicles = engine.range(&convoy_area);
    println!(
        "hotspot lookup over the convoy corridor: {} vehicles (engine: {} backend)",
        vehicles.len(),
        engine.backend_kind().label()
    );
    assert!(vehicles.contains(&lead_id) && vehicles.contains(&wing_id));
}
