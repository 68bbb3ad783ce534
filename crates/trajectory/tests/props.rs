//! Property-based tests for the trajectory substrate.

use proptest::prelude::*;
use trajectory::{
    error::ErrorMeasure, geom, AsColumns, Cube, Point, Simplification, Trajectory, TrajectoryDb,
};

/// Strategy: a valid trajectory of 2..=40 points with strictly increasing
/// times and bounded coordinates.
fn arb_trajectory() -> impl Strategy<Value = Trajectory> {
    prop::collection::vec((-1e4..1e4f64, -1e4..1e4f64, 0.1..50.0f64), 2..40).prop_map(|steps| {
        let mut t = 0.0;
        let pts = steps
            .into_iter()
            .map(|(x, y, dt)| {
                t += dt;
                Point::new(x, y, t)
            })
            .collect();
        Trajectory::new(pts).expect("constructed ordered")
    })
}

/// Strategy: sorted kept-index list for a trajectory of length `n`,
/// always containing 0 and n-1.
fn arb_kept(n: usize) -> BoxedStrategy<Vec<u32>> {
    if n <= 2 {
        return Just((0..n as u32).collect()).boxed();
    }
    prop::collection::btree_set(1..n as u32 - 1, 0..=n - 2)
        .prop_map(move |interior| {
            let mut kept: Vec<u32> = vec![0];
            kept.extend(interior);
            kept.push(n as u32 - 1);
            kept.dedup();
            kept
        })
        .boxed()
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(128))]

    #[test]
    fn errors_are_nonnegative_and_finite(traj in arb_trajectory()) {
        let n = traj.len();
        for m in ErrorMeasure::ALL {
            let e = m.segment_error_seq(&traj, 0, n - 1);
            prop_assert!(e >= 0.0 && e.is_finite(), "{m}: {e}");
        }
    }

    #[test]
    fn full_keep_has_zero_error(traj in arb_trajectory()) {
        let kept: Vec<u32> = (0..traj.len() as u32).collect();
        for m in ErrorMeasure::ALL {
            prop_assert!(m.trajectory_error(&traj, &kept) < 1e-9, "{m}");
        }
    }

    #[test]
    fn ped_never_exceeds_sed(traj in arb_trajectory()) {
        let n = traj.len();
        for i in 1..n - 1 {
            let ped = ErrorMeasure::Ped.point_error_seq(&traj, 0, n - 1, i);
            let sed = ErrorMeasure::Sed.point_error_seq(&traj, 0, n - 1, i);
            prop_assert!(ped <= sed + 1e-9, "PED {ped} > SED {sed}");
        }
    }

    #[test]
    fn dad_bounded_by_pi(traj in arb_trajectory()) {
        let n = traj.len();
        let e = ErrorMeasure::Dad.segment_error_seq(&traj, 0, n - 1);
        prop_assert!(e <= std::f64::consts::PI + 1e-9);
    }

    #[test]
    fn trajectory_error_covers_every_point(
        (traj, kept) in arb_trajectory().prop_flat_map(|t| {
            let n = t.len();
            (Just(t), arb_kept(n))
        })
    ) {
        // The Eq.2 error must upper-bound the SED of every dropped point
        // w.r.t. its own anchor (Eq.1 takes the max over exactly those).
        let worst = ErrorMeasure::Sed.trajectory_error(&traj, &kept);
        let store = TrajectoryDb::new(vec![traj.clone()]).to_store();
        let simp = Simplification::from_kept_store(&store, vec![kept.clone()]);
        for i in 0..traj.len() as u32 {
            if simp.contains(0, i) {
                continue;
            }
            let (s, e) = simp.anchor(0, i);
            let err = ErrorMeasure::Sed.point_error_seq(&traj, s as usize, e as usize, i as usize);
            prop_assert!(err <= worst + 1e-9);
        }
    }

    #[test]
    fn simplification_insert_remove_roundtrip(
        (traj, idx) in arb_trajectory().prop_flat_map(|t| {
            let n = t.len() as u32;
            (Just(t), 0..n)
        })
    ) {
        let db = TrajectoryDb::new(vec![traj]);
        let mut s = Simplification::most_simplified_store(&db.to_store());
        let before = s.total_points();
        let inserted = s.insert(0, idx);
        let endpoint = idx == 0 || idx as usize == db.get(0).len() - 1;
        prop_assert_eq!(inserted, !endpoint);
        if inserted {
            prop_assert_eq!(s.total_points(), before + 1);
            prop_assert!(s.remove(0, idx));
            prop_assert_eq!(s.total_points(), before);
        }
    }

    #[test]
    fn anchor_always_brackets(
        (traj, kept) in arb_trajectory().prop_flat_map(|t| {
            let n = t.len();
            (Just(t), arb_kept(n))
        })
    ) {
        let db = TrajectoryDb::new(vec![traj]);
        let simp = Simplification::from_kept_store(&db.to_store(), vec![kept]);
        for i in 0..db.get(0).len() as u32 {
            let (s, e) = simp.anchor(0, i);
            prop_assert!(s <= i && i <= e);
            if s != e {
                prop_assert!(simp.contains(0, s) && simp.contains(0, e));
            }
        }
    }

    #[test]
    fn position_at_stays_in_bounding_cube(
        (traj, frac) in (arb_trajectory(), 0.0..1.0f64)
    ) {
        let (t0, t1) = traj.time_span();
        let t = t0 + frac * (t1 - t0);
        let p = traj.position_at(t);
        let c = traj.bounding_cube();
        prop_assert!(p.x >= c.x_min - 1e-9 && p.x <= c.x_max + 1e-9);
        prop_assert!(p.y >= c.y_min - 1e-9 && p.y <= c.y_max + 1e-9);
    }

    #[test]
    fn octants_cover_contained_points(
        (x, y, t) in (0.0..1.0f64, 0.0..1.0f64, 0.0..1.0f64)
    ) {
        let c = Cube::new(0.0, 1.0, 0.0, 1.0, 0.0, 1.0);
        let p = Point::new(x, y, t);
        let k = c.octant_of(&p);
        prop_assert!(c.octants()[k].contains(&p));
    }

    #[test]
    fn angle_diff_triangle_inequality(
        (a, b, c) in (-10.0..10.0f64, -10.0..10.0f64, -10.0..10.0f64)
    ) {
        let ab = geom::angle_diff(a, b);
        let bc = geom::angle_diff(b, c);
        let ac = geom::angle_diff(a, c);
        prop_assert!(ac <= ab + bc + 1e-9);
    }

    #[test]
    fn store_round_trips_any_database(
        trajs in prop::collection::vec(arb_trajectory(), 1..8)
    ) {
        // PointStore ↔ Vec<Trajectory> is lossless: every coordinate of
        // every point survives the SoA conversion bit-exactly.
        let db = TrajectoryDb::new(trajs);
        let store = db.to_store();
        prop_assert_eq!(store.len(), db.len());
        prop_assert_eq!(store.total_points(), db.total_points());
        let back = store.to_db();
        for (id, t) in db.iter() {
            prop_assert_eq!(back.get(id).points(), t.points());
            let v = store.view(id);
            for i in 0..t.len() {
                prop_assert_eq!(v.point(i), *t.point(i));
            }
        }
        prop_assert_eq!(back.to_store(), store, "second conversion is stable");
    }

    #[test]
    fn views_answer_reads_identically_to_trajectories(
        (trajs, f0, f1) in (prop::collection::vec(arb_trajectory(), 1..5), 0.0..1.0f64, 0.0..1.0f64)
    ) {
        let db = TrajectoryDb::new(trajs);
        let store = db.to_store();
        for (id, t) in db.iter() {
            let v = store.view(id);
            let (t0, t1) = t.time_span();
            prop_assert_eq!(v.time_span(), (t0, t1));
            let (lo, hi) = if f0 <= f1 { (f0, f1) } else { (f1, f0) };
            let (ws, we) = (t0 + lo * (t1 - t0), t0 + hi * (t1 - t0));
            prop_assert_eq!(v.window_indices(ws, we), t.window_indices(ws, we));
            prop_assert_eq!(v.bounding_cube(), t.bounding_cube());
        }
    }

    #[test]
    fn gather_equals_materialize(
        (trajs, step) in (prop::collection::vec(arb_trajectory(), 1..6), 2usize..7)
    ) {
        let db = TrajectoryDb::new(trajs);
        let store = db.to_store();
        let kepts: Vec<Vec<u32>> = db
            .trajectories()
            .iter()
            .map(|t| {
                let n = t.len() as u32;
                let mut ks: Vec<u32> = (0..n).step_by(step).collect();
                if *ks.last().unwrap() != n - 1 {
                    ks.push(n - 1);
                }
                ks
            })
            .collect();
        // The expected `D'`, picked row by row straight from the builder.
        let expected: TrajectoryDb = db
            .iter()
            .map(|(id, t)| {
                Trajectory::new(kepts[id].iter().map(|&i| *t.point(i as usize)).collect()).unwrap()
            })
            .collect();
        let simp = Simplification::from_kept_store(&store, kepts);
        let gathered = simp.materialize_store(&store);
        prop_assert_eq!(&gathered, &expected.to_store(),
            "column gather must pick exactly the kept rows");
        prop_assert_eq!(simp.materialize(&db).to_store(), gathered,
            "the row-form forward returns the same database");
        // The bitmap view agrees with per-trajectory membership.
        let bitmap = simp.to_bitmap(&store);
        prop_assert_eq!(bitmap.count(), simp.total_points());
        for (id, t) in db.iter() {
            for idx in 0..t.len() as u32 {
                prop_assert_eq!(
                    bitmap.contains(store.global_id(id, idx)),
                    simp.contains(id, idx)
                );
            }
        }
    }

    #[test]
    fn csv_round_trip_preserves_structure(traj in arb_trajectory()) {
        let db = TrajectoryDb::new(vec![traj]);
        let mut buf = Vec::new();
        trajectory::io::write_csv(&db, &mut buf).unwrap();
        let back = trajectory::io::read_csv(&buf[..]).unwrap();
        prop_assert_eq!(back.len(), db.len());
        prop_assert_eq!(back.total_points(), db.total_points());
    }
}
