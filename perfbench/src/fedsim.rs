//! `fedsim-modern`: the federation delivery simulator on a
//! `ScaleTier::Modern` world (30k instances, 1M users), driven through the
//! simnet public API — once clean, once under the tier's top-5-AS outage
//! with a checkpoint frame every [`CHECKPOINT_EVERY`] ticks — followed by
//! the §4 availability sweep on the same world. Simnet and recover do the
//! work; the graph layer is not used.

use crate::{digest, Ctx, Report};
use fediscope_core::{availability, Observatory};
use fediscope_model::time::WINDOW_EPOCHS;
use fediscope_model::traffic::TootArena;
use fediscope_model::world::World;
use fediscope_recover::{recover_latest, snapshot_frame, MemStore, SnapshotStore};
use fediscope_simnet::fedsim::snapshot::{FEDSIM_KIND, FEDSIM_STATE_VERSION};
use fediscope_simnet::fedsim::{overlay, FanoutArena, FedSim, SimRun};
use fediscope_simnet::FedSimConfig;
use fediscope_worldgen::toots;
use fediscope_worldgen::{Generator, ScaleTier, WorldConfig};

const TIER: ScaleTier = ScaleTier::Modern;
/// Set-ups per run; `setup_s` is their median.
const SETUPS: usize = 3;
/// Expected messages the clean run fans out (about what the tier's own
/// toot rate gives at a typical seed).
const FANOUT: f64 = 2.0e6;
/// Ticks between checkpoint frames in the outage run.
const CHECKPOINT_EVERY: u32 = 24;
/// Ticks per timed stage: a simulation run is cut into stages of this
/// many ticks, each bracketed by probes.
const TICKS_PER_STAGE: u32 = 48;

struct Setup {
    world: World,
    toots: TootArena,
    fanout: FanoutArena,
    dest_users: Vec<u32>,
}

/// The outage run's checkpoint frames.
#[derive(Default)]
struct Checkpoints {
    store: MemStore,
    newest: u64,
    frame_bytes_max: usize,
}

/// Build a simulator with `new` and step it to the end, [`TICKS_PER_STAGE`]
/// ticks per stage; with `ckpt`, write a frame every [`CHECKPOINT_EVERY`]
/// ticks. Each stage's work sits in one span named `span`.
fn drive<'a>(
    ctx: &mut Ctx,
    stage: &'static str,
    span: &'static str,
    mut ckpt: Option<&mut Checkpoints>,
    new: impl FnOnce() -> FedSim<'a>,
) -> SimRun {
    let mut new = Some(new);
    let mut sim: Option<FedSim<'a>> = None;
    let mut run = None;
    while run.is_none() {
        ctx.stage(stage, |tr| {
            let id = tr.open(span);
            let s = sim.get_or_insert_with(|| new.take().expect("built once")());
            for _ in 0..TICKS_PER_STAGE {
                if s.is_done() {
                    break;
                }
                tr.call("simnet.tick", || s.step_tick());
                if let Some(c) = ckpt
                    .as_deref_mut()
                    .filter(|_| s.tick() % CHECKPOINT_EVERY == 0)
                {
                    tr.call("recover.snapshot", || {
                        let frame = snapshot_frame(&*s);
                        c.frame_bytes_max = c.frame_bytes_max.max(frame.len());
                        c.newest = u64::from(s.tick());
                        c.store
                            .put(c.newest, &frame)
                            .expect("in-memory store accepts frames");
                    });
                }
            }
            if s.is_done() {
                run = sim.take().map(FedSim::finish);
            }
            tr.close(id);
        });
    }
    run.expect("the simulation finished")
}

pub fn run(ctx: &mut Ctx) -> Report {
    let seed = ctx.seed;
    let mut s = ctx.setup(SETUPS, |ctx| {
        let cfg = WorldConfig::for_tier(TIER, seed);
        let world = ctx.stage("generate", |tr| {
            tr.call("worldgen.generate_world", || {
                Generator::generate_world(cfg.clone())
            })
        });
        let fanout = ctx.stage("fanout", |tr| {
            tr.call("simnet.fanout_build", || FanoutArena::from_world(&world))
        });
        let toots = ctx.stage("toots", |tr| {
            tr.call("worldgen.toots", || {
                // Toot rate scaled so that the clean run's expected fan-out
                // is the same for every seed: the offered load is fixed, and
                // the seed changes only who toots to whom.
                let per_rate: f64 = world
                    .users
                    .iter()
                    .map(|u| u.toot_count as f64 * fanout.dsts(u.id.0).len() as f64)
                    .sum::<f64>()
                    * f64::from(TIER.fedsim_horizon_epochs())
                    / f64::from(WINDOW_EPOCHS);
                toots::generate(
                    &cfg,
                    &world.users,
                    TIER.fedsim_horizon_epochs(),
                    FANOUT / per_rate,
                )
            })
        });
        let dest_users = world.instances.iter().map(|i| i.user_count).collect();
        Setup {
            world,
            toots,
            fanout,
            dest_users,
        }
    });
    let clean_cfg = FedSimConfig::for_tier(TIER, seed);
    assert_eq!(
        clean_cfg.shards, 1,
        "the benchmark runs the simulator on one shard"
    );
    let outage_cfg = clean_cfg.clone().with_top_as_outage(TIER);

    let mut report = Report {
        sizes: vec![
            ("instances", s.world.instances.len() as u64),
            ("users", s.world.users.len() as u64),
            ("edges", s.world.follows.len() as u64),
            ("toots", s.toots.n_toots() as u64),
            ("delivery_pairs", s.fanout.n_pairs() as u64),
            ("horizon_ticks", u64::from(s.toots.horizon())),
        ],
        ..Report::default()
    };
    let mut digests = Vec::new();
    ctx.rounds(|ctx| {
        let total = |cfg: &FedSimConfig| s.toots.horizon() + cfg.drain_epochs;
        let (clean_arena, outage_arena) = ctx.stage("overlays", |tr| {
            tr.call("simnet.overlay_build", || {
                (
                    overlay::build(&clean_cfg.overlay, &s.world.instances, total(&clean_cfg)),
                    overlay::build(&outage_cfg.overlay, &s.world.instances, total(&outage_cfg)),
                )
            })
        });
        let clean = drive(ctx, "fedsim_clean", "simnet.fedsim_clean", None, || {
            FedSim::new(
                clean_cfg.clone(),
                &s.fanout,
                &s.toots,
                &s.dest_users,
                clean_arena,
            )
        });
        let mut ckpt = Checkpoints::default();
        let hit = drive(
            ctx,
            "fedsim_outage",
            "simnet.fedsim_outage",
            Some(&mut ckpt),
            || {
                FedSim::new(
                    outage_cfg.clone(),
                    &s.fanout,
                    &s.toots,
                    &s.dest_users,
                    outage_arena,
                )
            },
        );
        let (store, newest, frame_bytes_max) = (ckpt.store, ckpt.newest, ckpt.frame_bytes_max);
        let rec = ctx.stage("recover", |tr| {
            tr.call("recover.decode", || {
                recover_latest(&store, FEDSIM_KIND, FEDSIM_STATE_VERSION)
            })
        });
        let w = std::mem::take(&mut s.world);
        let obs = ctx.stage("observatory", |tr| {
            tr.call("core.observatory", || Observatory::new(w))
        });
        let s4 = ctx.stage("section4", |tr| {
            tr.call("monitor.section4", || {
                availability::section4_tier(&obs, TIER)
            })
        });
        s.world = obs.world;

        for (name, r) in [("clean", &clean.report), ("outage", &hit.report)] {
            report.check(r.conserved(), || {
                format!("{name} run does not conserve messages")
            });
        }
        report.check(hit.report.rejected_down > 0, || {
            "the outage refused no delivery".into()
        });
        let resumed = rec.good.as_ref().map(|(meta, _)| meta.tick);
        report.check(resumed == Some(newest) && rec.torn_skipped == 0, || {
            format!(
                "recovery found {resumed:?} ({} torn), newest frame is {newest}",
                rec.torn_skipped
            )
        });
        let (c, h) = (&clean.report, &hit.report);
        let delivered = c.delivered() + h.delivered();
        let attempts = c.attempts + h.attempts;
        report.attempted = c.fanned_out + h.fanned_out;
        report.failed = c.dropped + c.undeliverable + h.dropped + h.undeliverable;
        let peak_backlog = clean
            .series
            .iter()
            .chain(&hit.series)
            .map(|t| t.backlog)
            .max()
            .unwrap_or(0);
        report.counts = vec![
            (
                "simnet.ticks",
                (clean.series.len() + hit.series.len()) as f64,
            ),
            ("simnet.fanned_out", report.attempted as f64),
            ("simnet.delivered", delivered as f64),
            (
                "simnet.redelivery_attempts",
                (c.redelivery_attempts + h.redelivery_attempts) as f64,
            ),
            (
                "simnet.rejected_full",
                (c.rejected_full + h.rejected_full) as f64,
            ),
            (
                "simnet.rejected_down",
                (c.rejected_down + h.rejected_down) as f64,
            ),
            ("simnet.dropped", (c.dropped + h.dropped) as f64),
            ("simnet.peak_backlog", peak_backlog as f64),
            (
                "simnet.delivered_per_attempt",
                delivered as f64 / attempts.max(1) as f64,
            ),
            ("recover.frames", store.len() as f64),
            ("recover.frame_bytes_max", frame_bytes_max as f64),
        ];
        digests.push(digest([c.event_hash, h.event_hash, s4.table1.len() as u64]));
    });
    report.check(digests.windows(2).all(|w| w[0] == w[1]), || {
        "rounds disagree on the output digest".into()
    });
    report.digest = digests[0];
    report
}
