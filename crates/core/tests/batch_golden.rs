//! Golden digests for the batch (WSC) event engine.
//!
//! A seeded matrix of WSC runs — three trace families × replication
//! {1, 2, 3} × batch interval {1, 2, 7, 100 ms} × policy {2CPM, quantile}
//! × power sampling {off, 1 ms, 100 ms, 5 s} — is replayed through
//! [`run_system_streamed_with_jobs`] at `jobs` 1 and 4, and each run's
//! [`RunMetrics`] is folded into an FNV-1a digest. The digests were
//! recorded from the engine that fired a batch tick every interval for
//! the whole trace; the armed-tick engine must reproduce them exactly,
//! peak counters included (see DESIGN.md §16).
//!
//! The sampled cells are the sensitive ones: a power sample due at a
//! grid instant observes the disks either before or after that instant's
//! dispatch, so any drift in tick-versus-event order at equal times moves
//! the power timeline. Spin-ups started by a dispatch complete 10 s later,
//! again on the grid for every interval but 7 ms.
//!
//! A failing test names the drifting cells and prints the recomputed
//! table; after an intended behaviour change, paste that table over the
//! recorded one.

mod common;

use common::digest;
use spindown_core::cost::CostFunction;
use spindown_core::experiment::{data_space, requests_from_trace};
use spindown_core::model::Request;
use spindown_core::placement::{PlacementConfig, PlacementMap};
use spindown_core::sched::{Scheduler, WscScheduler};
use spindown_core::system::{
    run_system_streamed_with_jobs, slice_source, PolicyKind, SystemConfig,
};
use spindown_sim::time::SimDuration;
use spindown_trace::synth::arrivals::OnOffProcess;
use spindown_trace::synth::{
    CelloLike, FinancialLike, FlashCrowdLike, FlashCrowdProcess, TraceGenerator,
};

const DISKS: u32 = 4;
const REPLICATION: [u32; 3] = [1, 2, 3];
const INTERVALS_MS: [u64; 4] = [1, 2, 7, 100];
const SAMPLES_US: [Option<u64>; 4] = [None, Some(1_000), Some(100_000), Some(5_000_000)];
const JOBS: [usize; 2] = [1, 4];

fn cello_like() -> Vec<Request> {
    let trace = CelloLike {
        requests: 120,
        data_items: 48,
        arrivals: OnOffProcess {
            sources: 4,
            on_shape: 1.5,
            on_scale_s: 0.4,
            off_shape: 1.3,
            off_scale_s: 2.0,
            burst_rate: 25.0,
        },
        ..CelloLike::default()
    }
    .generate(13);
    requests_from_trace(&trace)
}

fn financial_like() -> Vec<Request> {
    let trace = FinancialLike {
        requests: 240,
        data_items: 48,
        rate: 32.0,
        write_fraction: 0.5,
        ..FinancialLike::default()
    }
    .generate(31);
    requests_from_trace(&trace)
}

fn flash_crowd_like() -> Vec<Request> {
    let trace = FlashCrowdLike {
        requests: 200,
        data_items: 48,
        arrivals: FlashCrowdProcess {
            base_rate: 0.05,
            burst_rate: 50.0,
            burst_every_s: 18.0,
            burst_duration_s: 2.0,
        },
        ..FlashCrowdLike::default()
    }
    .generate(52);
    requests_from_trace(&trace)
}

/// Replays one trace through the whole matrix, returning one digest per
/// cell in (replication, interval, policy, sample) order and asserting
/// that every `jobs` value agrees.
fn matrix(requests: &[Request], seed: u64) -> Vec<u64> {
    let mut digests = Vec::new();
    for replication in REPLICATION {
        let placement = PlacementMap::build(
            data_space(requests),
            &PlacementConfig {
                disks: DISKS,
                replication,
                zipf_z: 1.0,
            },
            seed,
        );
        for interval_ms in INTERVALS_MS {
            let interval = SimDuration::from_millis(interval_ms);
            let factory = || {
                Box::new(WscScheduler::new(CostFunction::default(), interval)) as Box<dyn Scheduler>
            };
            for policy in [PolicyKind::Breakeven, PolicyKind::Quantile] {
                for sample_us in SAMPLES_US {
                    let config = SystemConfig {
                        disks: DISKS,
                        policy: policy.clone(),
                        power_sample: sample_us.map(SimDuration::from_micros),
                        seed,
                        ..SystemConfig::default()
                    };
                    let cell = JOBS.map(|jobs| {
                        digest(
                            &run_system_streamed_with_jobs(
                                &mut slice_source(requests),
                                &placement,
                                &factory,
                                &config,
                                jobs,
                            )
                            .expect("sorted slice"),
                        )
                    });
                    assert_eq!(
                        cell[0], cell[1],
                        "rf {replication} interval {interval_ms} ms {policy:?} \
                         sample {sample_us:?} us: jobs variants disagree"
                    );
                    digests.push(cell[0]);
                }
            }
        }
    }
    digests
}

/// Renders digests as the Rust constant `name` that records them.
fn table(name: &str, digests: &[u64]) -> String {
    let mut out = format!(
        "#[rustfmt::skip]\nconst {name}: [u64; {}] = [\n",
        digests.len()
    );
    for row in digests.chunks(4) {
        let row: Vec<String> = row.iter().map(|d| format!("0x{d:016x}")).collect();
        out += &format!("    {},\n", row.join(", "));
    }
    out + "];"
}

/// Compares a trace's matrix against its recorded table, naming every
/// drifting cell and printing the recomputed table on failure.
fn check(name: &str, requests: &[Request], seed: u64, golden: &[u64]) {
    let got = matrix(requests, seed);
    let recomputed = table(&name.to_uppercase(), &got);
    let policies = ["2cpm", "quantile"];
    let mut drift = Vec::new();
    for (i, (g, w)) in got.iter().zip(golden).enumerate() {
        if g != w {
            let sample = SAMPLES_US[i % 4];
            let policy = policies[(i / 4) % 2];
            let interval = INTERVALS_MS[(i / 8) % 4];
            let rf = REPLICATION[i / 32];
            drift.push(format!(
                "rf {rf} interval {interval} ms {policy} sample {sample:?} us"
            ));
        }
    }
    assert_eq!(
        got.len(),
        golden.len(),
        "{name}: matrix size changed; recomputed:\n{recomputed}"
    );
    assert!(
        drift.is_empty(),
        "{name}: {} of {} cells drifted from the recorded engine:\n{}\nrecomputed:\n{recomputed}",
        drift.len(),
        got.len(),
        drift.join("\n")
    );
}

#[test]
fn cello_like_matrix_matches_recorded_digests() {
    check("cello", &cello_like(), 13, &CELLO);
}

#[test]
fn financial_like_matrix_matches_recorded_digests() {
    check("financial", &financial_like(), 31, &FINANCIAL);
}

#[test]
fn flash_crowd_matrix_matches_recorded_digests() {
    check("flash_crowd", &flash_crowd_like(), 52, &FLASH_CROWD);
}

#[rustfmt::skip]
const CELLO: [u64; 96] = [
    0xfaa75f90ba20d3e0, 0x3707565259b33ca8, 0xf9de739d0f015435, 0x061af6d8d6d1c4e0,
    0xfaa75f90ba20d3e0, 0x3707565259b33ca8, 0xf9de739d0f015435, 0x061af6d8d6d1c4e0,
    0x5ab46b8324a7639e, 0x343844dee1c03d73, 0x6d2369a2949009cf, 0x1ed2dacdab9d788a,
    0x5ab46b8324a7639e, 0x343844dee1c03d73, 0x6d2369a2949009cf, 0x1ed2dacdab9d788a,
    0xa8e742931e1f761e, 0x4dd3d439a195757b, 0xca94365202a96a4f, 0x318713bc23b9cf0a,
    0xa8e742931e1f761e, 0x4dd3d439a195757b, 0xca94365202a96a4f, 0x318713bc23b9cf0a,
    0xef8847c86b79f76e, 0x9a5bc49978e7445b, 0x7b487d84be55bc35, 0x604df5f3b55c175a,
    0xef8847c86b79f76e, 0x9a5bc49978e7445b, 0x7b487d84be55bc35, 0x604df5f3b55c175a,
    0x49f05eb03eae27ff, 0x6d13136dbbbc5a2a, 0x052e21efc2f62abb, 0x4d441fbea09797fd,
    0x49f05eb03eae27ff, 0x6d13136dbbbc5a2a, 0x052e21efc2f62abb, 0x4d441fbea09797fd,
    0x41784a6fa9cf762f, 0xe34e9375294b584a, 0xc088686b1c3ca5ab, 0xca00c14fc6e9942d,
    0x41784a6fa9cf762f, 0xe34e9375294b584a, 0xc088686b1c3ca5ab, 0xca00c14fc6e9942d,
    0x83cb7ac7b74a042d, 0xe08907bccef7e21a, 0xcaf9e49b00cdc3f8, 0x4d8e45d586fb9173,
    0x83cb7ac7b74a042d, 0xe08907bccef7e21a, 0xcaf9e49b00cdc3f8, 0x4d8e45d586fb9173,
    0x18d645fc7bc9209f, 0x01a57a86b6f59da4, 0xc7de9f40eafd450b, 0xc4854d1134ff26dd,
    0x18d645fc7bc9209f, 0x01a57a86b6f59da4, 0xc7de9f40eafd450b, 0xc4854d1134ff26dd,
    0xffca23719f246b27, 0x079fd27e73c08435, 0xa87a7a05d8210d85, 0xb72e0efa33a74f55,
    0xffca23719f246b27, 0x079fd27e73c08435, 0xa87a7a05d8210d85, 0xb72e0efa33a74f55,
    0x608f91b6c000560c, 0x8eeff095fb356bee, 0x69de14fc9daf9ee6, 0x7736fb189cf6c72e,
    0x608f91b6c000560c, 0x8eeff095fb356bee, 0x69de14fc9daf9ee6, 0x7736fb189cf6c72e,
    0x0c92ca42d8f94389, 0x24d3a284a43fdc2f, 0x6aa7304ee5770bbf, 0xd1457053d2e031af,
    0x0c92ca42d8f94389, 0x24d3a284a43fdc2f, 0x6aa7304ee5770bbf, 0xd1457053d2e031af,
    0x9c2023858a27e2ab, 0x8c1328e15a621486, 0xaa586589c0f9c402, 0x8fdaf786c935bbb9,
    0x9c2023858a27e2ab, 0x8c1328e15a621486, 0xaa586589c0f9c402, 0x8fdaf786c935bbb9,
];
#[rustfmt::skip]
const FINANCIAL: [u64; 96] = [
    0x17590484d987d881, 0x3306fc8b274c9930, 0xcdf83f6c0f503c5a, 0x0a699211a885b875,
    0x17590484d987d881, 0x3306fc8b274c9930, 0xcdf83f6c0f503c5a, 0x0a699211a885b875,
    0xe3c64e0b11c0ed2e, 0xe429e8b6befcadda, 0xbb5477b96206c709, 0x7949c37504051cea,
    0xe3c64e0b11c0ed2e, 0xe429e8b6befcadda, 0xbb5477b96206c709, 0x7949c37504051cea,
    0x5fb9226ddc035373, 0xe165c3d54e03e133, 0x21131677f151edb6, 0x69cb697eaa2f6133,
    0x5fb9226ddc035373, 0xe165c3d54e03e133, 0x21131677f151edb6, 0x69cb697eaa2f6133,
    0x0528430c8e8cdb7e, 0x02589ca52b954905, 0xf2f2fbfe360e7c50, 0x1176908380d036fa,
    0x0528430c8e8cdb7e, 0x02589ca52b954905, 0xf2f2fbfe360e7c50, 0x1176908380d036fa,
    0x29254439ce04546d, 0x0cfa921d9f7d57ad, 0x2710acd33c27d111, 0x7d0fc02c2954641f,
    0x29254439ce04546d, 0x0cfa921d9f7d57ad, 0x2710acd33c27d111, 0x7d0fc02c2954641f,
    0xae7bcf3690c290f5, 0x559ba4868bff7e51, 0x8ab4c8ae8f1a5d49, 0xb79bf812ce89add7,
    0xae7bcf3690c290f5, 0x559ba4868bff7e51, 0x8ab4c8ae8f1a5d49, 0xb79bf812ce89add7,
    0xe0a78780abab32d2, 0x4e192abe230804dd, 0x3701037ceff9a630, 0x7d81bcbaa1a1eee0,
    0xe0a78780abab32d2, 0x4e192abe230804dd, 0x3701037ceff9a630, 0x7d81bcbaa1a1eee0,
    0x16c20fc0271d94e7, 0xefce4d667bddbc1b, 0x6022f113d98a23b3, 0x91e1b396357b1d21,
    0x16c20fc0271d94e7, 0xefce4d667bddbc1b, 0x6022f113d98a23b3, 0x91e1b396357b1d21,
    0xbcc788b8e0179e51, 0x858539d077eb3a9d, 0x57a41bbf29998b84, 0xb5dc00f9f8f76343,
    0xbcc788b8e0179e51, 0x858539d077eb3a9d, 0x57a41bbf29998b84, 0xb5dc00f9f8f76343,
    0x236c40cc2ddbd0f6, 0x4c30beccbc72055e, 0x00c853094526d8bb, 0xf812dfb361abbd34,
    0x236c40cc2ddbd0f6, 0x4c30beccbc72055e, 0x00c853094526d8bb, 0xf812dfb361abbd34,
    0x39cbd6109ea3561e, 0x93ce941d8e8d1366, 0x89d99b3abe34ec03, 0xe4ed5ef4f37cce8c,
    0x39cbd6109ea3561e, 0x93ce941d8e8d1366, 0x89d99b3abe34ec03, 0xe4ed5ef4f37cce8c,
    0xc2fbba70e3dbeeee, 0xefeb5b1142f812b0, 0x0a1266202e4be2ae, 0x8b3c2d88fa5eeadc,
    0xc2fbba70e3dbeeee, 0xefeb5b1142f812b0, 0x0a1266202e4be2ae, 0x8b3c2d88fa5eeadc,
];
#[rustfmt::skip]
const FLASH_CROWD: [u64; 96] = [
    0xc47c9c9d12b3744f, 0x0b51478854cc904e, 0x7e7e574c37e5b17d, 0x7273edeb92776c45,
    0xc47c9c9d12b3744f, 0x0b51478854cc904e, 0x7e7e574c37e5b17d, 0x7273edeb92776c45,
    0xe2a446f0d1ed85ee, 0xcaa41f2c64b1e2a1, 0xc90801fe6f3b6a18, 0xfa0ed6d1b4362211,
    0xe2a446f0d1ed85ee, 0xcaa41f2c64b1e2a1, 0xc90801fe6f3b6a18, 0xfa0ed6d1b4362211,
    0xc4be4f6d3a4c286f, 0xdb6bb8422eb687dd, 0xe178bd74d7356fea, 0x1767ed87e2c1088a,
    0xc4be4f6d3a4c286f, 0xdb6bb8422eb687dd, 0xe178bd74d7356fea, 0x1767ed87e2c1088a,
    0x236b4e68fc3254c0, 0x137431f91ad37cc5, 0xece14695e51f9f74, 0xfc86982ecdfc03dd,
    0x236b4e68fc3254c0, 0x137431f91ad37cc5, 0xece14695e51f9f74, 0xfc86982ecdfc03dd,
    0x28e0d7eb1de752e1, 0x4a65ed7a49fabc74, 0xf8a88c8e0d6aaec9, 0xc19a2ffccdeb7f7c,
    0x2bb23c1da85a3358, 0xaccdd6b665a2bd1f, 0x474dae712bbe9e2c, 0xf173c1e7b456ab13,
    0x7967fd42e161079d, 0xb8fa2062ca02befd, 0xdf9a2e46a22d8f2a, 0x25038147a923db8f,
    0x7fb5fe523bf49428, 0x18ca27486938f306, 0x20c2195c868d591e, 0xd740370fb29a7123,
    0x09be4f6de308d0b6, 0xd76495add7176050, 0x8c014b1e3c19cce2, 0xade6e9c32503f6d7,
    0x7ac2ce8ef526e32b, 0x913057c0ecd080b5, 0xb52fe78bcc5c2665, 0x49e1862d94e85154,
    0xa4406ea1332bc6d9, 0x717eca0eaa3f5343, 0xa5a64397363d7a7a, 0xc02fb7187457492c,
    0x7b1e522e8e422a86, 0xcc9ac56ef037517e, 0x361255c4830b18dc, 0xba551cf8a839f38b,
    0x4f1aba368b5e9fd7, 0x32e2fd1dd528f144, 0xaf6ac6738e928b62, 0x1fc58f636702de69,
    0xad220999de884318, 0x99ea041f884854ef, 0xdf5d93af37f34be8, 0xe19cbf5029ce4f49,
    0x9247a430ab887979, 0xc3f71151a7cb8ecc, 0x71e1e07d51dcc170, 0xf5f0597c8146d0e7,
    0x7f913c06b3df129c, 0x3339bcc3aab1216d, 0x863d443db89c3050, 0x14214c23e55d6cb5,
    0xe241ff4e1c5395d0, 0xda66c937bf876171, 0x87a035f98c8b9424, 0x6330f2ad8b68984d,
    0x90ea316aab2c7f98, 0x3b57304e7f8956d8, 0x94b950dd496964a8, 0xfaba536015315bc2,
    0xac5571d7d23e580c, 0xf498e5edb85c6a92, 0xc9de90c450c85c0c, 0xf399f7c5fca1f887,
    0x6bd6f96f199b83e5, 0xcef0be38d463b4b3, 0xdfaa178150f0276b, 0x27de2e8533791955,
];
