//! Agent-Point: the MDP for choosing a point inside a cube (§IV-B).
//!
//! Given the cube Agent-Cube chose, each trajectory crossing the cube
//! nominates its not-yet-inserted point with the largest *spatial* value
//! `v_s` (Eq. 6–7: the SED of the point w.r.t. its current anchor
//! segment). The state is the `K` largest nominations' `(v_s, v_t)` pairs
//! (Eq. 8); action `k` inserts the `k`-th nomination into `D'`.

use crate::config::Rl4QdtsConfig;
use traj_index::{CubeIndex, NodeId, PointRef};
use trajectory::{error::sed, geom, AsColumns, Point, PointId, Simplification};

/// One nominated insertion candidate.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Candidate {
    /// The point to insert.
    pub point: PointRef,
    /// Spatial feature `v_s`: SED w.r.t. the current anchor segment.
    pub vs: f64,
    /// Temporal feature `v_t`: |t − t(closest point on the anchor)|.
    pub vt: f64,
}

/// Agent-Point's working set, owned by the insertion loop and refilled by
/// [`point_state`] for every cube: after the loop's first few cubes no
/// insertion allocates.
#[derive(Debug, Clone, Default)]
pub struct PointScratch {
    /// The cube's global point ids, ascending.
    ids: Vec<PointId>,
    /// The candidates backing each action (≤ K, ordered by descending
    /// `v_s`).
    pub candidates: Vec<Candidate>,
    /// Feature vector of length `2K`: `K` interleaved `(v_s, v_t)` pairs,
    /// zero-padded.
    pub state: Vec<f64>,
    /// Valid-action mask of length `K`.
    pub mask: Vec<bool>,
}

/// `v_t` of point `p` against the anchor segment `(ps, pe)` (Eq. 6).
fn temporal_value(ps: &Point, pe: &Point, p: &Point) -> f64 {
    (p.t - geom::closest_point_time(ps, pe, p)).abs()
}

/// Computes `(v_s, v_t)` (Eq. 6) of point `r` w.r.t. its *current* anchor
/// segment in the simplified database. Returns `None` when the point is
/// already inserted (kept points are excluded from the state definition).
/// Point lookups are column reads on the store's zero-copy view.
pub fn point_value<S: AsColumns + ?Sized>(
    store: &S,
    simp: &Simplification,
    r: PointRef,
) -> Option<(f64, f64)> {
    let (s, e) = simp.anchor(r.traj, r.idx);
    if s == e {
        return None; // already in D'
    }
    let v = store.view(r.traj);
    let ps = v.point(s as usize);
    let pe = v.point(e as usize);
    let p = v.point(r.idx as usize);
    Some((sed(&ps, &pe, &p), temporal_value(&ps, &pe, &p)))
}

/// Builds the Agent-Point state for `cube` (Eq. 6–8) in `scratch`.
///
/// Per trajectory crossing the cube, only the maximum-`v_s` point is
/// nominated (Eq. 7); the global state takes the `K` nominations with the
/// largest `v_s` (Eq. 8). Returns `false` — and leaves no candidates —
/// when the cube holds no insertable point at all.
///
/// The cube's global ids arrive ascending, i.e. trajectory by trajectory
/// with each trajectory's indices ascending, so one offset cursor finds
/// every point's trajectory and one cursor through that trajectory's kept
/// list finds every point's anchor segment: no search per point.
pub fn point_state<S: AsColumns + ?Sized, I: CubeIndex + ?Sized>(
    store: &S,
    simp: &Simplification,
    tree: &I,
    cube: NodeId,
    config: &Rl4QdtsConfig,
    scratch: &mut PointScratch,
) -> bool {
    let k = config.k;
    let PointScratch {
        ids,
        candidates: nominations,
        state,
        mask,
    } = scratch;
    tree.sorted_point_ids(cube, ids);
    nominations.clear();
    let offsets = store.offsets();
    let mut traj = 0usize;
    let mut i = 0usize;
    while i < ids.len() {
        while offsets[traj + 1] <= ids[i] {
            traj += 1;
        }
        let (base, end) = (offsets[traj], offsets[traj + 1]);
        let v = store.view(traj);
        let kept = simp.kept(traj);
        // `kept[next]` is the first kept index ≥ the point at hand: the
        // trajectory's last point is always kept, so the cursor stops.
        let mut next = 0usize;
        let mut best: Option<Candidate> = None;
        while i < ids.len() && ids[i] < end {
            let idx = ids[i] - base;
            i += 1;
            while kept[next] < idx {
                next += 1;
            }
            if kept[next] == idx {
                continue; // already in D'
            }
            let ps = v.point(kept[next - 1] as usize);
            let pe = v.point(kept[next] as usize);
            let p = v.point(idx as usize);
            let vs = sed(&ps, &pe, &p);
            if best.is_none_or(|b| vs > b.vs) {
                best = Some(Candidate {
                    point: PointRef { traj, idx },
                    vs,
                    vt: temporal_value(&ps, &pe, &p),
                });
            }
        }
        nominations.extend(best);
    }
    if nominations.is_empty() {
        return false;
    }
    nominations.sort_by(|a, b| {
        b.vs.partial_cmp(&a.vs)
            .unwrap_or(std::cmp::Ordering::Equal)
            .then(a.point.traj.cmp(&b.point.traj))
    });
    nominations.truncate(k);

    state.clear();
    for c in nominations.iter() {
        state.push(c.vs);
        state.push(c.vt);
    }
    state.resize(2 * k, 0.0);
    mask.clear();
    mask.resize(nominations.len(), true);
    mask.resize(k, false);
    true
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;
    use rand::rngs::StdRng;
    use rand::SeedableRng;
    use traj_index::{MedianTree, MedianTreeConfig, Octree, OctreeConfig, SpatioTemporalIndex};
    use trajectory::gen::{generate, DatasetSpec, Scale};
    use trajectory::{PointStore, TrajId, Trajectory, TrajectoryDb};

    /// Agent-Point's state as it was built before [`PointScratch`]: the
    /// cube's points grouped into one `Vec` per trajectory
    /// (`CubeIndex::points_by_trajectory`, here over the leaves the query
    /// engine's view exposes), a binary search for every point's anchor
    /// ([`point_value`]) and a fresh `PointState` per call. The reference
    /// the cursor walk is held to.
    mod nested {
        use super::*;

        #[derive(Debug, Clone)]
        pub struct PointState {
            pub state: Vec<f64>,
            pub mask: Vec<bool>,
            pub candidates: Vec<Candidate>,
        }

        fn points_by_trajectory<I: SpatioTemporalIndex>(
            tree: &I,
            starts: &[u32],
            id: NodeId,
        ) -> Vec<(TrajId, Vec<u32>)> {
            let mut points: Vec<PointId> = Vec::with_capacity(tree.point_count(id) as usize);
            let mut stack = vec![id];
            while let Some(n) = stack.pop() {
                match SpatioTemporalIndex::children(tree, n) {
                    None => points.extend_from_slice(tree.leaf_points(n)),
                    Some(children) => stack.extend(children),
                }
            }
            group_by_trajectory(points, starts)
        }

        fn group_by_trajectory(
            mut points: Vec<PointId>,
            starts: &[u32],
        ) -> Vec<(TrajId, Vec<u32>)> {
            points.sort_unstable();
            let mut out: Vec<(TrajId, Vec<u32>)> = Vec::new();
            // Sorted global ids visit trajectories in id order: advance the offset
            // cursor instead of binary-searching per point.
            let mut traj = 0usize;
            for gid in points {
                while starts[traj + 1] <= gid {
                    traj += 1;
                }
                let idx = gid - starts[traj];
                match out.last_mut() {
                    Some((last, idxs)) if *last == traj => idxs.push(idx),
                    _ => out.push((traj, vec![idx])),
                }
            }
            out
        }

        pub fn point_state<S: AsColumns + ?Sized, I: SpatioTemporalIndex>(
            store: &S,
            simp: &Simplification,
            tree: &I,
            cube: NodeId,
            config: &Rl4QdtsConfig,
        ) -> Option<PointState> {
            let k = config.k;
            let mut nominations: Vec<Candidate> = Vec::new();
            for (traj, idxs) in points_by_trajectory(tree, store.offsets(), cube) {
                let mut best: Option<Candidate> = None;
                for idx in idxs {
                    let r = PointRef { traj, idx };
                    if let Some((vs, vt)) = point_value(store, simp, r) {
                        if best.is_none_or(|b| vs > b.vs) {
                            best = Some(Candidate { point: r, vs, vt });
                        }
                    }
                }
                if let Some(c) = best {
                    nominations.push(c);
                }
            }
            if nominations.is_empty() {
                return None;
            }
            nominations.sort_by(|a, b| {
                b.vs.partial_cmp(&a.vs)
                    .unwrap_or(std::cmp::Ordering::Equal)
                    .then(a.point.traj.cmp(&b.point.traj))
            });
            nominations.truncate(k);

            let mut state = Vec::with_capacity(2 * k);
            let mut mask = vec![false; k];
            for (i, c) in nominations.iter().enumerate() {
                state.push(c.vs);
                state.push(c.vt);
                mask[i] = true;
            }
            state.resize(2 * k, 0.0);
            Some(PointState {
                state,
                mask,
                candidates: nominations,
            })
        }
    }

    /// Two trajectories; t1 has a large detour at index 2, t2 a small one.
    fn setup() -> (PointStore, Octree, Simplification) {
        let t1 = Trajectory::new(vec![
            Point::new(0.0, 0.0, 0.0),
            Point::new(10.0, 0.0, 10.0),
            Point::new(20.0, 90.0, 20.0),
            Point::new(30.0, 0.0, 30.0),
            Point::new(40.0, 0.0, 40.0),
        ])
        .unwrap();
        let t2 = Trajectory::new(vec![
            Point::new(0.0, 50.0, 0.0),
            Point::new(10.0, 58.0, 10.0),
            Point::new(20.0, 50.0, 20.0),
        ])
        .unwrap();
        let store = TrajectoryDb::new(vec![t1, t2]).to_store();
        let tree = Octree::build(
            &store,
            OctreeConfig {
                max_depth: 3,
                leaf_capacity: 100,
            },
        );
        let simp = Simplification::most_simplified_store(&store);
        (store, tree, simp)
    }

    /// The state of the root cube, which must hold an insertable point.
    fn root_state(
        db: &PointStore,
        simp: &Simplification,
        tree: &Octree,
        cfg: &Rl4QdtsConfig,
    ) -> PointScratch {
        let mut ps = PointScratch::default();
        assert!(point_state(db, simp, tree, tree.root(), cfg, &mut ps));
        ps
    }

    #[test]
    fn point_value_measures_sed_to_anchor() {
        let (db, _, simp) = setup();
        // t1 point 2: anchor (0, 4); sync at t=20 is (20, 0); actual (20, 90).
        let (vs, vt) = point_value(&db, &simp, PointRef { traj: 0, idx: 2 }).unwrap();
        assert!((vs - 90.0).abs() < 1e-9);
        assert!(vt >= 0.0);
        // Kept endpoints yield no value.
        assert!(point_value(&db, &simp, PointRef { traj: 0, idx: 0 }).is_none());
    }

    #[test]
    fn state_ranks_candidates_by_vs() {
        let (db, tree, simp) = setup();
        let cfg = Rl4QdtsConfig::paper().with_k(2);
        let ps = root_state(&db, &simp, &tree, &cfg);
        assert_eq!(ps.candidates.len(), 2);
        // t1's detour (vs = 90) must rank above t2's bump (vs = 8).
        assert_eq!(ps.candidates[0].point, PointRef { traj: 0, idx: 2 });
        assert!(ps.candidates[0].vs > ps.candidates[1].vs);
        assert_eq!(ps.state.len(), 4);
        assert_eq!(ps.mask, vec![true, true]);
    }

    #[test]
    fn one_nomination_per_trajectory() {
        let (db, tree, simp) = setup();
        let cfg = Rl4QdtsConfig::paper().with_k(4);
        let ps = root_state(&db, &simp, &tree, &cfg);
        // Even with K=4 there are only 2 trajectories => 2 candidates.
        assert_eq!(ps.candidates.len(), 2);
        assert_eq!(ps.mask, vec![true, true, false, false]);
        assert_eq!(ps.state[3 * 2..], [0.0, 0.0][..]);
    }

    #[test]
    fn inserted_points_leave_the_state() {
        let (db, tree, mut simp) = setup();
        let cfg = Rl4QdtsConfig::paper().with_k(2);
        simp.insert(0, 2);
        let ps = root_state(&db, &simp, &tree, &cfg);
        assert!(
            ps.candidates
                .iter()
                .all(|c| c.point != PointRef { traj: 0, idx: 2 }),
            "inserted point must not be re-nominated"
        );
    }

    #[test]
    fn exhausted_cube_returns_none() {
        let (db, tree, simp) = setup();
        let cfg = Rl4QdtsConfig::paper();
        let full = Simplification::full_store(&db);
        // A scratch that held a state before holds none after.
        let mut ps = root_state(&db, &simp, &tree, &cfg);
        assert!(!point_state(&db, &full, &tree, tree.root(), &cfg, &mut ps));
        assert!(ps.candidates.is_empty());
    }

    #[test]
    fn anchor_updates_change_values() {
        let (db, _, mut simp) = setup();
        let r = PointRef { traj: 0, idx: 1 };
        let (vs_before, _) = point_value(&db, &simp, r).unwrap();
        // Inserting the detour point re-anchors point 1 to (0, 2):
        // sync at t=10 moves to (10, 45), so v_s jumps.
        simp.insert(0, 2);
        let (vs_after, _) = point_value(&db, &simp, r).unwrap();
        assert!(vs_after > vs_before);
    }

    /// The cursor walk against the nested-`Vec` form at every node of
    /// `tree`, leaf and interior, for K ∈ {1, 2, 5} — bit for bit, through
    /// one scratch reused across all of them.
    fn assert_matches_nested<I: CubeIndex + SpatioTemporalIndex>(
        store: &PointStore,
        simp: &Simplification,
        tree: &I,
        nodes: u32,
    ) {
        let bits = |v: &[f64]| v.iter().map(|x| x.to_bits()).collect::<Vec<_>>();
        let flat = |cs: &[Candidate]| {
            cs.iter()
                .map(|c| (c.point, c.vs.to_bits(), c.vt.to_bits()))
                .collect::<Vec<_>>()
        };
        let mut scratch = PointScratch::default();
        for k in [1, 2, 5] {
            let cfg = Rl4QdtsConfig::paper().with_k(k);
            for node in 0..nodes {
                let old = nested::point_state(store, simp, tree, node, &cfg);
                let new = point_state(store, simp, tree, node, &cfg, &mut scratch);
                assert_eq!(new, old.is_some(), "node {node}, K = {k}");
                let Some(old) = old else {
                    assert!(scratch.candidates.is_empty(), "node {node}, K = {k}");
                    continue;
                };
                assert_eq!(
                    flat(&scratch.candidates),
                    flat(&old.candidates),
                    "node {node}, K = {k}"
                );
                assert_eq!(bits(&scratch.state), bits(&old.state), "node {node}");
                assert_eq!(scratch.mask, old.mask, "node {node}, K = {k}");
            }
        }
    }

    fn assert_both_backends_match_nested(store: &PointStore, simp: &Simplification) {
        let octree = Octree::build(
            store,
            OctreeConfig {
                max_depth: 4,
                leaf_capacity: 5,
            },
        );
        assert_matches_nested(store, simp, &octree, octree.len() as u32);
        let kd = MedianTree::build(
            store,
            MedianTreeConfig {
                max_depth: 3,
                leaf_capacity: 5,
            },
        );
        assert_matches_nested(store, simp, &kd, kd.len() as u32);
    }

    /// Databases of 1–6 trajectories of 1–25 points (a one-point
    /// trajectory keeps its only point and never nominates), the first of
    /// them repeated `copies` times: equal `v_s` on different trajectories.
    fn arb_store() -> impl Strategy<Value = PointStore> {
        let traj = prop::collection::vec((-1e3..1e3f64, -1e3..1e3f64, 0.1..10.0f64), 1..25);
        (prop::collection::vec(traj, 1..6), 0usize..3).prop_map(|(trajs, copies)| {
            let mut trajs: Vec<Trajectory> = trajs
                .into_iter()
                .map(|steps| {
                    let mut t = 0.0;
                    let pts = steps.into_iter().map(|(x, y, dt)| {
                        t += dt;
                        Point::new(x, y, t)
                    });
                    Trajectory::new(pts.collect()).unwrap()
                })
                .collect();
            for _ in 0..copies {
                trajs.push(trajs[0].clone());
            }
            TrajectoryDb::new(trajs).to_store()
        })
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(48))]

        #[test]
        fn point_state_is_the_nested_vec_state(
            store in arb_store(),
            fill in prop::collection::vec((0usize..64, 0u32..64), 0..60),
        ) {
            let mut simp = Simplification::most_simplified_store(&store);
            assert_both_backends_match_nested(&store, &simp);
            for (traj, idx) in fill {
                let traj = traj % store.len();
                simp.insert(traj, idx % store.view(traj).len() as u32);
            }
            assert_both_backends_match_nested(&store, &simp);
            // Every point kept: no cube has a state.
            assert_both_backends_match_nested(&store, &Simplification::full_store(&store));
        }
    }

    #[test]
    fn equal_values_nominate_the_lower_trajectory_first() {
        let t = Trajectory::new(vec![
            Point::new(0.0, 0.0, 0.0),
            Point::new(10.0, 40.0, 10.0),
            Point::new(20.0, 0.0, 20.0),
        ])
        .unwrap();
        let store = TrajectoryDb::new(vec![t.clone(), t.clone(), t]).to_store();
        let simp = Simplification::most_simplified_store(&store);
        let tree = Octree::build(&store, OctreeConfig::default());
        let cfg = Rl4QdtsConfig::paper().with_k(2);
        let ps = root_state(&store, &simp, &tree, &cfg);
        let trajs: Vec<TrajId> = ps.candidates.iter().map(|c| c.point.traj).collect();
        assert_eq!(trajs, [0, 1]);
        assert_eq!(ps.candidates[0].vs.to_bits(), ps.candidates[1].vs.to_bits());
        assert_both_backends_match_nested(&store, &simp);
    }

    #[test]
    fn scratch_keeps_its_capacity_across_a_thousand_insertions() {
        let store = generate(&DatasetSpec::tdrive(Scale::Small).with_trajectories(8), 3).to_store();
        let cfg = Rl4QdtsConfig::scaled_to_points(store.total_points());
        let tree = Octree::build(
            &store,
            OctreeConfig {
                max_depth: cfg.max_depth,
                leaf_capacity: cfg.leaf_capacity,
            },
        );
        let mut simp = Simplification::most_simplified_store(&store);
        let mut scratch = PointScratch::default();
        // The root holds every point of every trajectory: the largest
        // state there is sizes every buffer once.
        assert!(point_state(
            &store,
            &simp,
            &tree,
            tree.root(),
            &cfg,
            &mut scratch
        ));
        let capacities = |s: &PointScratch| {
            [
                s.ids.capacity(),
                s.candidates.capacity(),
                s.state.capacity(),
                s.mask.capacity(),
            ]
        };
        let warmed = capacities(&scratch);
        let sampler = tree.start_sampler(cfg.start_level, true);
        let mut rng = StdRng::seed_from_u64(9);
        let mut insertions = 0;
        while insertions < 1_000 {
            let cube = sampler.sample(&mut rng);
            if point_state(&store, &simp, &tree, cube, &cfg, &mut scratch) {
                let c = scratch.candidates[0];
                assert!(simp.insert(c.point.traj, c.point.idx));
                insertions += 1;
            }
            assert_eq!(
                capacities(&scratch),
                warmed,
                "after {insertions} insertions"
            );
        }
    }
}
