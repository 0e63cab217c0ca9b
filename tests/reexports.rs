//! Smoke test for the public re-export surface.
//!
//! The examples and the crate-level doctest reach everything through either
//! the umbrella paths (`esr_suite::core`, `esr_suite::parcomm`, …) or the
//! member crates directly (`esr_core`, `parcomm`, …). This test constructs
//! each entry point through both spellings so a refactor that silently drops
//! a re-export breaks here — a fast unit test — instead of only in
//! `cargo build --examples` or the doctest.

use esr_suite::core::{Problem, SolverConfig};
use esr_suite::parcomm::{CostModel, FailureScript};
use esr_suite::precond::{
    BlockJacobi, BlockSolver, ExplicitPrec, Identity, Ilu0, Jacobi, Preconditioner, SparseLdl,
};
use esr_suite::sparsemat::{gen, BlockPartition};

#[test]
fn umbrella_paths_match_member_crates() {
    // The umbrella modules are the member crates, not parallel copies.
    let via_umbrella = esr_suite::parcomm::CostModel::default();
    let via_member: parcomm::CostModel = via_umbrella;
    let _ = via_member;

    let a = esr_suite::sparsemat::gen::poisson2d(4, 4);
    let b: sparsemat::Csr = a;
    let _ = b;
}

#[test]
fn recovery_policy_reaches_through_umbrella_paths() {
    // The policy axis is public surface: constructible through the
    // umbrella and convertible to the member-crate type.
    let via_umbrella = esr_suite::core::RecoveryPolicy::Spares(3);
    let via_member: esr_core::RecoveryPolicy = via_umbrella;
    assert_eq!(via_member, esr_core::RecoveryPolicy::Spares(3));
    assert_eq!(
        esr_core::RecoveryPolicy::default(),
        esr_core::RecoveryPolicy::Replace
    );
    let cfg = SolverConfig::resilient_with_policy(2, esr_suite::core::RecoveryPolicy::Shrink);
    assert_eq!(
        cfg.resilience.unwrap().policy,
        esr_core::RecoveryPolicy::Shrink
    );
}

#[test]
fn engine_and_config_error_types_reach_through_umbrella_paths() {
    // The resilience engine's public surface after the solver-agnostic
    // refactor: the report types and the typed configuration
    // errors are re-exported (the old per-solver `recovery`/
    // `pipe_recovery` modules are gone).
    let report = esr_suite::core::RecoveryReport {
        total_failed: 2,
        retired_ranks: 1,
        replaced: None,
        attempts: 1,
        inner_iterations: 40,
        rollback_to: None,
        timeline: esr_suite::core::RecoveryTimeline::default(),
    };
    let via_member: esr_core::RecoveryReport = report;
    assert_eq!(via_member.total_failed, 2);
    assert!(via_member.timeline.segments.is_empty());

    // ConfigError is a std::error::Error with the constraint in Display.
    let err = esr_suite::core::ConfigError::PhiTooLarge { phi: 9, nodes: 4 };
    let as_std: &dyn std::error::Error = &err;
    assert!(as_std.to_string().contains("survivor"));
    assert_eq!(esr_core::SolverKind::PipeCg.name(), "pipelined PCG");

    // And the run_* entry points return it as a typed Result.
    let a = esr_suite::sparsemat::gen::poisson2d(6, 6);
    let problem = Problem::with_ones_solution(a);
    let err = esr_suite::core::run_pcg(
        &problem,
        4,
        &SolverConfig::resilient(9),
        CostModel::default(),
        FailureScript::none(),
    )
    .expect_err("phi = 9 on 4 nodes leaves no survivor");
    assert!(matches!(
        err,
        esr_core::ConfigError::PhiTooLarge { phi: 9, nodes: 4 }
    ));
}

#[test]
fn checkpoint_protection_reaches_through_umbrella_paths() {
    // The protection axis (engine-folded checkpoint/restart) is public
    // surface: CrConfig through both spellings (the old `core::checkpoint`
    // home re-exports the config type) and Protection on ResilienceConfig.
    // There is no C/R entry point or SolverKind of its own: protection is
    // configuration, and the one driver `run(SolverKind, …)` takes it.
    let via_umbrella = esr_suite::core::CrConfig::default()
        .with_interval(5)
        .with_copies(2);
    let via_member: esr_core::CrConfig = via_umbrella.clone();
    let via_old_home: esr_core::checkpoint::CrConfig = via_member.clone();
    assert_eq!(via_old_home.interval, 5);
    assert_eq!(via_old_home.copies, 2);

    let res = esr_core::ResilienceConfig::paper(1)
        .with_protection(esr_suite::core::Protection::Checkpoint(via_old_home));
    assert!(res.cr().is_some());
    assert!(!res.is_esr());
    assert!(esr_core::ResilienceConfig::paper(2).is_esr());

    // A full C/R-protected solve through the generic driver.
    let a = esr_suite::sparsemat::gen::poisson2d(8, 8);
    let problem = Problem::with_ones_solution(a);
    let mut cfg = SolverConfig::resilient(1);
    cfg.resilience = Some(res);
    let result = esr_suite::core::run(
        esr_core::SolverKind::Pcg,
        &problem,
        4,
        &cfg,
        CostModel::default(),
        FailureScript::simultaneous(6, 1, 1, 4),
    )
    .unwrap();
    assert!(result.converged);
    assert_eq!(result.recoveries, 1);
    let err = result.x.iter().map(|x| (x - 1.0).abs()).fold(0.0, f64::max);
    assert!(err < 1e-6, "rollback restart not convergent: {err}");
}

#[test]
fn failure_script_builders_validate_at_construction() {
    // The size-aware builders are public surface; bounds are checked at
    // the construction site, not later inside Cluster::run.
    let script = FailureScript::at_iterations(8, &[(3, 1), (3, 2), (9, 0)]);
    assert_eq!(script.total_failed_ranks(), 3);
    assert_eq!(script.validated_nodes(), Some(8));
    let bad = std::panic::catch_unwind(|| FailureScript::at_iterations(4, &[(3, 9)]));
    assert!(bad.is_err(), "out-of-bounds rank must fail at construction");
}

#[test]
fn failure_script_and_cost_model_construct() {
    // The exact calls the doctest and examples/overlapping_failures.rs use.
    let script = FailureScript::simultaneous(5, 1, 2, 6);
    let _ = script;
    let none = FailureScript::none();
    let _ = none;
    let cost = CostModel::default();
    assert!(cost.msg_cost(10) > 0.0);
}

#[test]
fn block_partition_constructs() {
    let part = BlockPartition::new(100, 7);
    let covered: usize = (0..7).map(|k| part.len_of(k)).sum();
    assert_eq!(covered, 100);
}

#[test]
fn every_precond_variant_constructs_through_public_paths() {
    let a = gen::banded_spd(24, 3, 0.7, 42);

    let variants: Vec<(&str, Box<dyn Preconditioner>)> = vec![
        ("identity", Box::new(Identity::new(a.n_rows()))),
        ("jacobi", Box::new(Jacobi::new(&a).unwrap())),
        (
            "block_jacobi",
            Box::new(BlockJacobi::with_blocks(&a, 4, BlockSolver::ExactLdl).unwrap()),
        ),
        ("ldl", Box::new(SparseLdl::new(&a).unwrap())),
        ("ilu0", Box::new(Ilu0::new(&a).unwrap())),
        ("explicit", Box::new(ExplicitPrec::jacobi_of(&a).unwrap())),
    ];

    let r: Vec<f64> = (0..a.n_rows()).map(|i| (i as f64 * 0.3).sin()).collect();
    for (name, m) in &variants {
        let mut z = vec![0.0; a.n_rows()];
        m.apply(&r, &mut z);
        assert!(
            z.iter().all(|v| v.is_finite()),
            "{name} produced non-finite output"
        );
    }
}

#[test]
fn nonblocking_api_reaches_through_umbrella_paths() {
    // The request handles and the pipelined solver are public surface; a
    // dropped re-export must break here, not only in the examples.
    use esr_suite::parcomm::{Cluster, ClusterConfig, ReduceOp};
    let out = Cluster::run(ClusterConfig::new(3), |ctx| {
        let req: esr_suite::parcomm::AllreduceRequest =
            ctx.iallreduce_vec(ReduceOp::Sum, vec![1.0]);
        req.wait(ctx)[0]
    });
    assert!(out.iter().all(|&v| v == 3.0));

    let a = esr_suite::sparsemat::gen::poisson2d(8, 8);
    let problem = Problem::with_ones_solution(a);
    let result = esr_suite::core::run_pipecg(
        &problem,
        4,
        &SolverConfig::reference(),
        CostModel::default(),
        FailureScript::none(),
    )
    .unwrap();
    assert!(result.converged);
}

#[test]
fn resilient_solve_through_umbrella_paths_only() {
    // A miniature version of the crate-level doctest, kept as a plain test
    // so the public API contract is enforced even when doctests are skipped.
    let a = esr_suite::sparsemat::gen::poisson2d(8, 8);
    let problem = Problem::with_ones_solution(a);
    let script = FailureScript::simultaneous(3, 1, 2, 4);
    let result = esr_suite::core::run_pcg(
        &problem,
        4,
        &SolverConfig::resilient(2),
        CostModel::default(),
        script,
    )
    .unwrap();
    assert!(result.converged);
    assert_eq!(result.ranks_recovered, 2);
    let err = result.x.iter().map(|x| (x - 1.0).abs()).fold(0.0, f64::max);
    assert!(err < 1e-6, "reconstruction not exact: {err}");
    // The two lost blocks are neighbours: their x solve iterates, and the
    // result's count is the most any node ran in the one event.
    let per_event: Vec<&[usize]> = (result.per_node.iter())
        .map(|o| o.inner_iterations.as_slice())
        .collect();
    assert!(per_event.iter().all(|e| e.len() == 1), "{per_event:?}");
    let most = per_event.iter().map(|e| e[0]).max();
    assert_eq!(Some(result.inner_iterations), most);
    assert!(result.inner_iterations > 0);
}

#[test]
fn static_data_reaches_through_umbrella_paths() {
    // The per-problem store of blocks and factors is public surface: its
    // counters through `Problem`, the store and `node_program`'s
    // `&Problem` form for direct `Cluster::run_async` users, the range form of
    // `LocalMatrix::build`, and the cluster-size error `run` returns.
    use esr_suite::parcomm::{Cluster, ClusterConfig};
    let a = esr_suite::sparsemat::gen::poisson2d(8, 8);
    let problem = Problem::with_ones_solution(a);
    assert_eq!(
        problem.static_counts(),
        esr_suite::core::StaticCounts::default()
    );

    let shared = problem.clone();
    let cfg = SolverConfig::reference();
    let outs = Cluster::run_async(ClusterConfig::new(4), async move |ctx| {
        let pcg = esr_core::SolverKind::Pcg;
        esr_suite::core::node_program(pcg, ctx, &shared, &cfg).await
    });
    assert!(outs.values.iter().all(|o| o.converged));
    let counts: esr_core::StaticCounts = problem.static_counts();
    assert_eq!((counts.blocks_built, counts.factors_built), (4, 4));

    let store: std::sync::Arc<esr_suite::core::StaticData> = problem.statics();
    let part = BlockPartition::new(64, 4);
    let block = store.block(&part.range(2));
    let direct = esr_core::localmat::LocalMatrix::build_range(&problem.a, part.range(2));
    assert_eq!(block.ghost_cols, direct.ghost_cols);
    assert!(store.factor(&part.range(2)).is_ok());
    assert_eq!(problem.static_counts(), counts, "served, not rebuilt");

    let err = esr_suite::core::run_pcg(
        &problem,
        65,
        &SolverConfig::reference(),
        CostModel::default(),
        FailureScript::none(),
    )
    .expect_err("65 nodes cannot each own one of 64 rows");
    assert!(matches!(
        err,
        esr_core::ConfigError::NodesOutOfRange {
            nodes: 65,
            rows: 64
        }
    ));
}
