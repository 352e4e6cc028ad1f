//! `figures-paper2019`: every §4–§5 entry point of `fediscope_core` on a
//! `ScaleTier::Paper2019` world (4,328 instances, 853k users) — the
//! paper's own figures at the paper's own scale. The graph layer does most
//! of the work; simnet, crawler and recover are not used.

use crate::{digest, Ctx, Report};
use fediscope_core::{availability, content, graphs, population, scenarios, verdicts, Observatory};
use fediscope_worldgen::{Generator, ScaleTier, WorldConfig};

const TIER: ScaleTier = ScaleTier::Paper2019;
/// Set-ups per run; `setup_s` is their median.
const SETUPS: usize = 3;
/// The verdict suite's size with the heavy sweeps included.
const VERDICTS: usize = 27;

pub fn run(ctx: &mut Ctx) -> Report {
    let seed = ctx.seed;
    let mut world = ctx.setup(SETUPS, |ctx| {
        ctx.stage("generate", |tr| {
            tr.call("worldgen.generate_world", || {
                Generator::generate_world(WorldConfig::for_tier(TIER, seed))
            })
        })
    });

    let mut report = Report {
        sizes: vec![
            ("instances", world.instances.len() as u64),
            ("users", world.users.len() as u64),
            ("edges", world.follows.len() as u64),
            ("toots", world.total_toots()),
            ("twitter_users", u64::from(world.twitter.n_users)),
        ],
        ..Report::default()
    };
    let mut digests = Vec::new();
    ctx.rounds(|ctx| {
        let w = std::mem::take(&mut world);
        let obs = ctx.stage("observatory", |tr| {
            tr.call("core.observatory", || Observatory::new(w))
        });
        let (nodes, edges) = ctx.stage("csr", |tr| {
            let g = tr.call("graph.csr_user", || obs.user_graph());
            tr.call("graph.csr_federation", || obs.federation_graph());
            tr.call("graph.csr_twitter", || obs.twitter_graph());
            (g.node_count(), g.edge_count())
        });
        let mut words = vec![nodes as u64, edges as u64];
        ctx.stage("population", |tr| {
            tr.call("core.population", || {
                let f1 = population::fig01_growth(&obs, 30);
                let f2 = population::fig02_open_closed(&obs);
                let f3 = population::fig03_categories(&obs);
                let f4 = population::fig04_policies(&obs);
                let f5 = population::fig05_hosting(&obs);
                let f6 = population::fig06_country_links(&obs);
                std::hint::black_box((f1, f2, f3, f4, f5, f6));
            })
        });
        ctx.stage("section4", |tr| {
            let s4 = tr.call("monitor.section4", || {
                availability::section4_tier(&obs, TIER)
            });
            let f9 = tr.call("monitor.fig09", || availability::fig09_certificates(&obs));
            words.push(s4.table1.len() as u64);
            std::hint::black_box((s4, f9));
        });
        ctx.stage("degrees", |tr| {
            tr.call("graph.degrees", || {
                std::hint::black_box((
                    graphs::fig11_degrees(&obs),
                    graphs::table2_top_instances(&obs),
                ));
            })
        });
        let f12 = ctx.stage("fig12", |tr| {
            tr.call("graph.fig12_sweep", || {
                graphs::fig12_user_removal_tier(&obs, TIER)
            })
        });
        words.push(f12.mastodon_after_1pct.to_bits());
        // The random baseline's trials, one stage each: the same trials
        // `fig12_random_baseline_tier(obs, TIER, seed)` runs (trial `i`
        // draws seed `seed + i`), each bracketed by its own probes.
        for i in 0..TIER.baseline_trials() as u64 {
            let b = ctx.stage("fig12_baseline", |tr| {
                tr.call("graph.fig12_baseline", || {
                    graphs::fig12_random_baseline(&obs, TIER.fig12_steps(), 1, seed.wrapping_add(i))
                })
            });
            words.extend(b.mean_lcc_frac.iter().map(|f| f.to_bits()));
        }
        let f13 = ctx.stage("fig13", |tr| {
            tr.call("graph.fig13_sweep", || {
                graphs::fig13_federation_removal_tier(&obs, TIER)
            })
        });
        words.push(f13.initial_lcc_instances.to_bits());
        ctx.stage("content", |tr| {
            tr.call("replication.content_view", || obs.content_view());
            let f14 = tr.call("replication.fig14", || content::fig14_remote_ratio(&obs));
            std::hint::black_box(f14);
        });
        let f15 = ctx.stage("fig15", |tr| {
            tr.call("replication.fig15", || {
                content::fig15_replication_tier(&obs, TIER)
            })
        });
        words.push(
            f15.sub_by_instance
                .last()
                .map_or(0, |p| p.availability.to_bits()),
        );
        let f16 = ctx.stage("fig16", |tr| {
            tr.call("replication.fig16", || {
                content::fig16_random_replication_tier(&obs, TIER)
            })
        });
        words.push(f16.unreplicated_frac.to_bits());
        let grid = ctx.stage("scenarios", |tr| {
            tr.call("replication.scenario_grid", || {
                scenarios::section5_scenarios_tier(&obs, TIER, seed, None)
            })
        });
        words.extend(grid.grid.cells.iter().map(|c| c.availability.to_bits()));
        let vs = ctx.stage("verdicts", |tr| {
            tr.call("core.verdicts", || verdicts::evaluate(&obs, false))
        });
        words.extend(vs.iter().map(|v| v.measured.to_bits()));

        let failed = verdicts::failed(&vs);
        report.check(vs.len() == VERDICTS, || {
            format!("{} verdicts, expected {VERDICTS}", vs.len())
        });
        for v in vs.iter().filter(|v| !v.pass) {
            report.problems.push(format!(
                "verdict {} failed: measured {:.4}, paper {:.4}",
                v.id, v.measured, v.paper
            ));
        }
        report.attempted = vs.len() as u64;
        report.failed = failed as u64;
        report.counts = vec![
            ("graph.nodes", nodes as f64),
            ("graph.edges", edges as f64),
            ("replication.grid_cells", grid.grid.cells.len() as f64),
            ("core.verdicts_failed", failed as f64),
        ];
        digests.push(digest(words));
        world = obs.world;
    });
    report.check(digests.windows(2).all(|w| w[0] == w[1]), || {
        "rounds disagree on the output digest".into()
    });
    report.digest = digests[0];
    report
}
