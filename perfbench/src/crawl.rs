//! `crawl-flaky`: the §2 survey against a small world served by
//! `simnet::launch` under `FaultPlan::flaky()`, crawled with
//! `Politeness::hostile()` in the order of `crawler::survey::run_survey`:
//! monitor sweeps, then the toot crawl, then the follower scrape. After
//! each sweep a checkpoint frame (monitor state plus fault-injector state)
//! goes into a store, as `fediscope crawl --checkpoint-dir` writes them.
//! The only workload that runs the crawler, httpwire, exec, the
//! ActivityPub JSON and the simnet HTTP API.

use crate::{digest, Ctx, Report};
use fediscope_crawler::discovery::SeedList;
use fediscope_crawler::followers::scrape_followers;
use fediscope_crawler::monitor::{InstanceMonitor, MonitorState};
use fediscope_crawler::politeness::Politeness;
use fediscope_crawler::survey::Survey;
use fediscope_crawler::toots::crawl_toots;
use fediscope_httpwire::Client;
use fediscope_model::datasets::{PollResult, TootsDataset};
use fediscope_model::time::Epoch;
use fediscope_model::world::World;
use fediscope_recover::{encode_frame, recover_latest, MemStore, SnapshotStore};
use fediscope_simnet::{launch, FaultPlan, InjectorState, SimNetHandle};
use fediscope_worldgen::{Generator, WorldConfig};
use std::sync::Arc;
use tokio::runtime::Runtime;

/// Set-ups per run; `setup_s` is their median.
const SETUPS: usize = 15;
/// Instances and users of the served world.
const INSTANCES: usize = 1_000;
const USERS: usize = 40_000;
/// Lifetime toots per user on open and closed instances: about 27k toots
/// in all, so the toot crawl is about a third of a round and does not
/// swamp the monitor sweeps.
const TOOTS_PER_USER: (f64, f64) = (0.5, 0.75);
/// Instance-size skew. Flatter than the paper's (1.4), so which instances
/// happen to be down or crawl-blocking moves the crawl's work little from
/// seed to seed.
const INSTANCE_ZIPF: f64 = 0.4;
/// Monitor sweeps per round, the epochs between two sweeps, and the first
/// sweep's epoch (day 400 of the 472-day window, when most instances
/// exist).
const SWEEPS: u32 = 20;
const SWEEP_STRIDE: u32 = 24;
const BASE_EPOCH: u32 = 115_200;
/// Sweeps per timed stage, and instances per toot-crawl stage: short
/// stages keep the probes close to the work they normalise.
const SWEEPS_PER_STAGE: u32 = 2;
const INSTANCES_PER_STAGE: usize = 100;
/// Frame kind and schema of the checkpoints.
const KIND: &str = "perfbench-crawl";
const STATE_VERSION: u32 = 1;

/// What is checkpointed after each sweep.
#[derive(serde::Serialize)]
struct CrawlCheckpoint {
    sweeps_done: u32,
    monitor: MonitorState,
    injector: InjectorState,
}

/// A launched simnet on its own executor; shut down when dropped.
struct Served {
    rt: Runtime,
    net: Option<SimNetHandle>,
    world: Arc<World>,
    /// Injector state right after launch: every round starts from it, so
    /// every round draws the same faults.
    injector: InjectorState,
}

impl Served {
    fn net(&self) -> &SimNetHandle {
        self.net.as_ref().expect("simnet is up")
    }
}

impl Drop for Served {
    fn drop(&mut self) {
        if let Some(net) = self.net.take() {
            self.rt.block_on(net.shutdown());
        }
    }
}

pub fn run(ctx: &mut Ctx) -> Report {
    let seed = ctx.seed;
    let served = ctx.setup(SETUPS, |ctx| {
        let mut cfg = WorldConfig::tiny(seed);
        cfg.n_instances = INSTANCES;
        cfg.n_users = USERS;
        cfg.toots_per_user_open = TOOTS_PER_USER.0;
        cfg.toots_per_user_closed = TOOTS_PER_USER.1;
        cfg.instance_zipf_exponent = INSTANCE_ZIPF;
        let world = ctx.stage("generate", |tr| {
            tr.call("worldgen.generate_world", || {
                Arc::new(Generator::generate_world(cfg))
            })
        });
        let rt = Runtime::new().expect("executor");
        let net = ctx
            .stage("launch", |tr| {
                tr.call("simnet.launch", || {
                    rt.block_on(launch(world.clone(), FaultPlan::flaky(), seed))
                })
            })
            .expect("simnet launches");
        let injector = net.state.faults.export_state();
        Served {
            rt,
            net: Some(net),
            world,
            injector,
        }
    });
    let world = &served.world;
    let net = served.net();
    let seeds = SeedList::for_simnet(world, net.addr());
    let politeness = Politeness::hostile();
    let client = Client::default();

    let mut report = Report {
        sizes: vec![
            ("instances", world.instances.len() as u64),
            ("users", world.users.len() as u64),
            ("edges", world.follows.len() as u64),
            ("toots", world.total_toots()),
            ("sweeps", u64::from(SWEEPS)),
        ],
        ..Report::default()
    };
    let mut digests = Vec::new();
    ctx.rounds(|ctx| {
        net.state.faults.restore_state(&served.injector);
        let mut store = MemStore::new();
        let mut monitor = InstanceMonitor::new(seeds.clone(), politeness.clone());
        let mut frame_bytes_max = 0usize;
        for first in (0..SWEEPS).step_by(SWEEPS_PER_STAGE as usize) {
            ctx.stage("monitor", |tr| {
                for sweep in first..first + SWEEPS_PER_STAGE {
                    let epoch = Epoch(BASE_EPOCH + sweep * SWEEP_STRIDE);
                    net.state.clock.set(epoch);
                    tr.call("crawler.monitor", || {
                        served.rt.block_on(monitor.poll_all(epoch))
                    });
                    tr.call("recover.snapshot", || {
                        let ckpt = CrawlCheckpoint {
                            sweeps_done: sweep + 1,
                            monitor: monitor.capture(),
                            injector: net.state.faults.export_state(),
                        };
                        let state = serde::Serialize::to_json_value(&ckpt);
                        let frame = encode_frame(KIND, STATE_VERSION, u64::from(sweep + 1), &state);
                        frame_bytes_max = frame_bytes_max.max(frame.len());
                        store
                            .put(u64::from(sweep + 1), &frame)
                            .expect("in-memory store accepts frames");
                    });
                }
            });
        }
        // The toot crawl, a slice of the seed list per stage: instances are
        // crawled independently, so the slices add up to one crawl.
        let mut dataset = TootsDataset::default();
        for slice in seeds.entries().chunks(INSTANCES_PER_STAGE) {
            let slice = SeedList::new(slice.to_vec());
            let part = ctx.stage("toots", |tr| {
                tr.call("crawler.toot_crawl", || {
                    served
                        .rt
                        .block_on(crawl_toots(&slice, &politeness, &client))
                })
            });
            dataset.records.extend(part.records);
        }
        let targets = Survey::tooting_users(&dataset);
        let graphs = ctx.stage("followers", |tr| {
            tr.call("crawler.followers", || {
                served
                    .rt
                    .block_on(scrape_followers(&seeds, &targets, &politeness, &client))
            })
        });
        let rec = ctx.stage("recover", |tr| {
            tr.call("recover.decode", || {
                recover_latest(&store, KIND, STATE_VERSION)
            })
        });

        // Polls: one per instance per sweep, each Up, Down or Unknown.
        let state = monitor.capture();
        let polls: Vec<&PollResult> = state
            .dataset
            .series
            .iter()
            .flat_map(|s| s.polls.iter().map(|(_, r)| r))
            .collect();
        let expected_polls = u64::from(SWEEPS) * seeds.len() as u64;
        report.check(polls.len() as u64 == expected_polls, || {
            format!("{} polls recorded, {expected_polls} made", polls.len())
        });
        report.check(
            state
                .dataset
                .series
                .iter()
                .all(|s| s.polls.len() == SWEEPS as usize),
            || "an instance is missing polls".into(),
        );
        let unknown = polls.iter().filter(|r| !r.is_known()).count() as u64;
        let up = polls.iter().filter(|r| r.is_up()).count() as u64;
        // Toots: one record per instance; per-user counts add up to the
        // instance's home toots.
        report.check(
            dataset.records.len() == seeds.len()
                && dataset
                    .records
                    .iter()
                    .zip(seeds.entries())
                    .all(|(r, s)| r.instance == s.instance),
            || "the toot crawl does not hold one record per instance, in seed order".into(),
        );
        for r in &dataset.records {
            let per_user: u64 = r.user_toots.iter().map(|&(_, n)| u64::from(n)).sum();
            report.check(
                per_user == r.home_toots && r.user_toots.len() == r.tooting_users as usize,
                || {
                    format!(
                        "instance {} toot accounting: {per_user} per-user vs {} home",
                        r.instance.0, r.home_toots
                    )
                },
            );
        }
        // An instance left uncrawled although it was up and allows crawling
        // is a failed crawl; down or crawl-blocking instances are observed
        // correctly when left out.
        let uncrawled = dataset
            .records
            .iter()
            .filter(|r| !r.crawled)
            .filter(|r| {
                world.instances[r.instance.index()].crawl_allowed && net.state.is_up(r.instance)
            })
            .count() as u64;
        // Followers: every scraped edge points at a scrape target.
        let target_set: std::collections::HashSet<_> = targets.iter().map(|&(u, _)| u).collect();
        report.check(
            graphs.follows.iter().all(|(_, to)| target_set.contains(to)),
            || "a follower edge points outside the scrape targets".into(),
        );
        let newest = rec.good.as_ref().map(|(meta, _)| meta.tick);
        report.check(
            newest == Some(u64::from(SWEEPS)) && rec.torn_skipped == 0,
            || {
                format!(
                    "recovery found {newest:?} ({} torn), newest frame is {SWEEPS}",
                    rec.torn_skipped
                )
            },
        );

        report.attempted = polls.len() as u64 + dataset.records.len() as u64 + targets.len() as u64;
        report.failed = unknown + uncrawled;
        report.counts = vec![
            ("crawler.polls", polls.len() as f64),
            ("crawler.polls_unknown", unknown as f64),
            ("crawler.toots", dataset.total_home_toots() as f64),
            (
                "crawler.instances_crawled",
                dataset.crawled_instances() as f64,
            ),
            ("crawler.follow_edges", graphs.follows.len() as f64),
            (
                "crawler.breakers_open",
                state
                    .breakers
                    .iter()
                    .filter(|&&(_, _, cooldown)| cooldown > 0)
                    .count() as f64,
            ),
            (
                "crawler.toot_coverage",
                dataset.coverage(world.total_toots()),
            ),
            ("recover.frames", store.len() as f64),
            ("recover.frame_bytes_max", frame_bytes_max as f64),
        ];
        let mut words = vec![
            up,
            unknown,
            dataset.total_home_toots(),
            graphs.follows.len() as u64,
        ];
        words.extend(
            graphs
                .follows
                .iter()
                .map(|&(a, b)| (u64::from(a.0) << 32) | u64::from(b.0)),
        );
        digests.push(digest(words));
    });
    report.check(digests.windows(2).all(|w| w[0] == w[1]), || {
        "rounds disagree on the output digest".into()
    });
    report.digest = digests[0];
    report
}
