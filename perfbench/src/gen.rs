//! Seeded inputs of the three trace-replay workloads.
//!
//! Every scenario is a pure function of the seed: the directories set-up
//! creates, the files it pre-populates, the trace the clients replay, and
//! the namespace the replay must leave behind (used by the output check).

use hare_core::InodeId;
use hare_workloads::trace::{concat, synth_mix, MixSpec, MixWeights, Trace, TraceOp, TraceRecord};
use std::collections::{BTreeMap, BTreeSet};

/// File servers of the replay machine (`HareConfig::split(8, 4)`).
pub const NSERVERS: usize = 4;
/// Buffer-cache partition of one server: 16384 blocks of 4 KiB over 4
/// servers.
pub const PARTITION_BYTES: u64 = 16 << 20;

/// SplitMix64: the seeded source for the hand-written generators.
pub struct Rng(u64);

impl Rng {
    pub fn new(seed: u64) -> Rng {
        Rng(seed ^ 0x5DEE_CE66_D1CE_4E5B)
    }

    pub fn next(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9E37_79B9_7F4A_7C15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        z ^ (z >> 31)
    }

    /// Uniform in `lo..hi`.
    pub fn range(&mut self, lo: u64, hi: u64) -> u64 {
        lo + self.next() % (hi - lo)
    }

    /// Fisher–Yates shuffle.
    pub fn shuffle<T>(&mut self, v: &mut [T]) {
        for i in (1..v.len()).rev() {
            v.swap(i, self.range(0, i as u64 + 1) as usize);
        }
    }
}

/// Draws from a deck holding each choice as often as its weight,
/// reshuffled whenever it runs out: the mix holds exactly over every
/// deck's worth of draws, and the seed only decides the order.
pub struct Deck {
    cards: Vec<usize>,
    next: usize,
}

impl Deck {
    pub fn new(weights: &[u32]) -> Deck {
        let cards = weights
            .iter()
            .enumerate()
            .flat_map(|(k, &w)| std::iter::repeat_n(k, w as usize))
            .collect::<Vec<_>>();
        let next = cards.len();
        Deck { cards, next }
    }

    pub fn draw(&mut self, rng: &mut Rng) -> usize {
        if self.next == self.cards.len() {
            rng.shuffle(&mut self.cards);
            self.next = 0;
        }
        self.next += 1;
        self.cards[self.next - 1]
    }
}

/// One replay workload's inputs and expected outcome.
pub struct Scenario {
    /// Directories set-up creates, parents first (all centralized).
    pub dirs: Vec<String>,
    /// Files set-up writes before the measured region: `(path, size)`.
    pub files: Vec<(String, u64)>,
    /// The replayed trace.
    pub trace: Trace,
    /// Per client, the index within its own stream where phase 2 begins
    /// (empty for single-phase workloads).
    pub phase2: Vec<usize>,
    /// The cache-relevant property of the inputs, as `(name, value)`.
    pub cache_property: (&'static str, f64),
}

/// The namespace a scenario must leave: directory → entry → file size
/// (`None` for a subdirectory).
pub type Namespace = BTreeMap<String, BTreeMap<String, Option<u64>>>;

fn split(path: &str) -> (&str, &str) {
    let i = path.rfind('/').expect("absolute path");
    (if i == 0 { "/" } else { &path[..i] }, &path[i + 1..])
}

impl Scenario {
    /// Applies set-up and the trace to an empty namespace. Clients only
    /// ever mutate names they created, so applying records in trace order
    /// gives the same result as any interleaving the replay picks.
    pub fn expected(&self) -> Namespace {
        let mut ns: Namespace = BTreeMap::new();
        for d in &self.dirs {
            ns.entry(d.clone()).or_default();
            let (parent, name) = split(d);
            if parent != "/" {
                ns.get_mut(parent)
                    .expect("parent first")
                    .insert(name.into(), None);
            }
        }
        let mut set = |path: &str, size: Option<u64>| {
            let (dir, name) = split(path);
            let entries = ns.get_mut(dir).expect("trace dir exists");
            match size {
                Some(s) => entries.insert(name.into(), Some(s)),
                None => entries.remove(name),
            };
        };
        for (p, s) in &self.files {
            set(p, Some(*s));
        }
        let mut sizes: BTreeMap<String, u64> = self.files.iter().cloned().collect();
        for r in &self.trace.records {
            match &r.op {
                TraceOp::Creat { path, size } => {
                    sizes.insert(path.clone(), *size);
                    set(path, Some(*size));
                }
                TraceOp::Append { path, size } => {
                    let s = sizes.get_mut(path).expect("append to a live file");
                    *s += size;
                    set(path, Some(*s));
                }
                TraceOp::Unlink { path } => {
                    sizes.remove(path);
                    set(path, None);
                }
                TraceOp::Rename { old, new } => {
                    let s = sizes.remove(old).expect("rename of a live file");
                    sizes.insert(new.clone(), s);
                    set(old, None);
                    set(new, Some(s));
                }
                _ => {}
            }
        }
        ns
    }
}

/// Most distinct path prefixes (the dentries a client resolves) any one
/// client of `trace` touches.
fn max_dentries_per_client(trace: &Trace) -> f64 {
    let mut per: Vec<BTreeSet<&str>> = vec![BTreeSet::new(); trace.nclients()];
    for r in &trace.records {
        let paths: Vec<&str> = match &r.op {
            TraceOp::Rename { old, new } => vec![old, new],
            TraceOp::Creat { path, .. }
            | TraceOp::Read { path, .. }
            | TraceOp::Append { path, .. }
            | TraceOp::Stat { path }
            | TraceOp::Unlink { path }
            | TraceOp::Mkdir { path }
            | TraceOp::Rmdir { path }
            | TraceOp::Readdir { path } => vec![path],
        };
        for p in paths {
            for (i, _) in p.match_indices('/').skip(1) {
                per[r.client].insert(&p[..i]);
            }
            per[r.client].insert(p);
        }
    }
    per.iter().map(|s| s.len()).max().unwrap_or(0) as f64
}

/// A name in the root whose entry (and so, for a new directory, whose
/// home) lands on `server`.
fn root_name(prefix: &str, server: usize) -> String {
    hare_bench::pinned_name(InodeId::ROOT, true, prefix, server as u16, NSERVERS)
}

/// Renames every file name a phase creates so two phases generated with
/// the same client ids never collide (`synth_mix` numbers from 1 each time).
fn rename_phase(t: &mut Trace, tag: &str) {
    let fix = |p: &mut String| {
        let (dir, name) = split(p);
        *p = format!("{dir}/{tag}{name}");
    };
    for r in &mut t.records {
        match &mut r.op {
            TraceOp::Rename { old, new } => {
                fix(old);
                fix(new);
            }
            TraceOp::Readdir { .. } => {}
            TraceOp::Creat { path, .. }
            | TraceOp::Read { path, .. }
            | TraceOp::Append { path, .. }
            | TraceOp::Stat { path }
            | TraceOp::Unlink { path }
            | TraceOp::Mkdir { path }
            | TraceOp::Rmdir { path } => fix(path),
        }
    }
}

/// `meta_deep`: eight clients run the default metadata mix (stat 6 :
/// creat 3 : read 2 : unlink 2 : rename 1 : readdir 1) over 1024 leaf
/// directories at depth 5, with files of at most 256 bytes. Every leaf
/// holds one pre-populated file, so stats and reads have a target in any
/// leaf; unlinks and renames pick among the client's own live files.
pub fn meta_deep(seed: u64, ops_per_client: usize) -> Scenario {
    const FANOUT: usize = 4;
    const CLIENTS: usize = 8;
    let mut dirs = Vec::new();
    let mut level: Vec<String> = (0..FANOUT)
        .map(|s| format!("/{}", root_name("t", s)))
        .collect();
    dirs.extend(level.iter().cloned());
    for tag in ["a", "b", "c", "leaf"] {
        level = level
            .iter()
            .flat_map(|p| (0..FANOUT).map(move |i| format!("{p}/{tag}{i}")))
            .collect();
        dirs.extend(level.iter().cloned());
    }
    let mut rng = Rng::new(seed);
    let files: Vec<(String, u64)> = level
        .iter()
        .map(|d| (format!("{d}/seed"), rng.range(1, 257)))
        .collect();
    let w = MixWeights::default();
    let mut records = Vec::new();
    for c in 0..CLIENTS {
        let mut deck = Deck::new(&[w.stat, w.creat, w.read, w.unlink, w.rename, w.readdir]);
        let mut live: Vec<String> = Vec::new();
        let mut serial = 0;
        for _ in 0..ops_per_client {
            let think = rng.range(10, 200);
            let mut kind = deck.draw(&mut rng);
            if live.is_empty() && (kind == 3 || kind == 4) {
                kind = 1;
            }
            let leaf = &level[rng.range(0, level.len() as u64) as usize];
            let target = |rng: &mut Rng, live: &[String]| {
                if !live.is_empty() && rng.range(0, 2) == 0 {
                    live[rng.range(0, live.len() as u64) as usize].clone()
                } else {
                    format!("{leaf}/seed")
                }
            };
            let op = match kind {
                0 => TraceOp::Stat {
                    path: target(&mut rng, &live),
                },
                1 => {
                    serial += 1;
                    let path = format!("{leaf}/c{c}f{serial}");
                    live.push(path.clone());
                    TraceOp::Creat {
                        path,
                        size: rng.range(1, 257),
                    }
                }
                2 => TraceOp::Read {
                    path: target(&mut rng, &live),
                    size: 256,
                },
                3 => {
                    let i = rng.range(0, live.len() as u64) as usize;
                    TraceOp::Unlink {
                        path: live.swap_remove(i),
                    }
                }
                4 => {
                    let i = rng.range(0, live.len() as u64) as usize;
                    serial += 1;
                    let (dir, _) = split(&live[i]);
                    let new = format!("{dir}/c{c}r{serial}");
                    let old = std::mem::replace(&mut live[i], new.clone());
                    TraceOp::Rename { old, new }
                }
                _ => TraceOp::Readdir { path: leaf.clone() },
            };
            records.push(TraceRecord {
                client: c,
                think,
                op,
            });
        }
    }
    let trace = Trace {
        name: "meta_deep".into(),
        dirs: Vec::new(),
        records,
    };
    let prop = max_dentries_per_client(&trace);
    Scenario {
        dirs,
        files,
        trace,
        phase2: Vec::new(),
        cache_property: ("client.dircache.dentries_per_client_max", prop),
    }
}

/// `data_rw`: four clients, each owning a directory homed on its own
/// server, create and append to 256 KiB–1 MiB files there and read files
/// pre-populated in every client's directory. File sizes come from a
/// fixed ladder the seed deals out, so the size mix, and with it the
/// latency distribution, is the same for every seed.
pub fn data_rw(seed: u64, ops_per_client: usize) -> Scenario {
    const CLIENTS: usize = 4;
    const SHARED: usize = 8;
    const LIVE_CAP: usize = 6;
    /// 32 sizes from 64 to 250 blocks.
    fn ladder(i: u64) -> u64 {
        (64 + 6 * (i % 32)) * 4096
    }
    let mut rng = Rng::new(seed);
    let dirs: Vec<String> = (0..CLIENTS)
        .map(|s| format!("/{}", root_name("data", s)))
        .collect();
    // The shared files take every ladder size once, in seeded order.
    let mut sizes: Vec<u64> = (0..(CLIENTS * SHARED) as u64).map(ladder).collect();
    rng.shuffle(&mut sizes);
    let mut files = Vec::new();
    for (k, d) in dirs.iter().enumerate() {
        for j in 0..SHARED {
            files.push((format!("{d}/shared{j}"), sizes[k * SHARED + j]));
        }
    }
    let mut next_size = rng.range(0, 32);
    let mut big = || {
        next_size += 7;
        ladder(next_size)
    };
    let mut records = Vec::new();
    // Live bytes per directory, tracked in each client's own order; the
    // partition holds the pre-populated files plus the owner's live set.
    let mut peak = [0u64; CLIENTS];
    for (c, dir) in dirs.iter().enumerate() {
        let base: u64 = files
            .iter()
            .filter(|(p, _)| p.starts_with(&format!("{dir}/")))
            .map(|f| f.1)
            .sum();
        let mut live: Vec<(String, u64)> = Vec::new();
        let mut serial = 0;
        let mut deck = Deck::new(&[1; 40]);
        for _ in 0..ops_per_client {
            let think = rng.range(20, 200);
            // Reads 30% (a third of them of the client's own files),
            // appends 55%, creates 10%, unlinks 5%, plus the unlinks the
            // live-set cap forces; without a live file, reads go to the
            // shared files and appends become creates.
            let roll = deck.draw(&mut rng);
            let op = if roll < 8 || (roll < 12 && live.is_empty()) {
                let (p, s) = &files[rng.range(0, files.len() as u64) as usize];
                TraceOp::Read {
                    path: p.clone(),
                    size: *s,
                }
            } else if roll < 12 {
                let (p, s) = &live[rng.range(0, live.len() as u64) as usize];
                TraceOp::Read {
                    path: p.clone(),
                    size: *s,
                }
            } else if roll < 34 && !live.is_empty() {
                let i = rng.range(0, live.len() as u64) as usize;
                let add = rng.range(512, 3072);
                live[i].1 += add;
                TraceOp::Append {
                    path: live[i].0.clone(),
                    size: add,
                }
            } else if live.len() >= LIVE_CAP || (roll >= 38 && !live.is_empty()) {
                let i = rng.range(0, live.len() as u64) as usize;
                TraceOp::Unlink {
                    path: live.swap_remove(i).0,
                }
            } else {
                serial += 1;
                let path = format!("{dir}/c{c}f{serial}");
                let size = big();
                live.push((path.clone(), size));
                TraceOp::Creat { path, size }
            };
            records.push(TraceRecord {
                client: c,
                think,
                op,
            });
            // Block-rounded, as the partition allocates.
            let used: u64 = live.iter().map(|(_, s)| s.div_ceil(4096) * 4096).sum();
            peak[c] = peak[c].max(base + used);
        }
    }
    let peak = *peak.iter().max().expect("clients");
    Scenario {
        dirs,
        files,
        trace: Trace {
            name: "data_rw".into(),
            dirs: Vec::new(),
            records,
        },
        phase2: Vec::new(),
        cache_property: (
            "server.live_bytes_per_partition_max_share",
            peak as f64 / PARTITION_BYTES as f64,
        ),
    }
}

/// `hotspot_shift`: four clients against eight centralized directories,
/// all homed on server 1. Phase 1 churns directory A (creates, unlinks,
/// renames); phase 2 reads directory B (listings and stats).
pub fn hotspot_shift(seed: u64, ops_per_phase: usize) -> Scenario {
    const CLIENTS: usize = 4;
    const HOT: usize = 1;
    let a = format!("/{}", root_name("hotA", HOT));
    let b = format!("/{}", root_name("hotB", HOT));
    let bg: Vec<String> = (0..6)
        .map(|k| format!("/{}", root_name(&format!("bg{k}x"), HOT)))
        .collect();
    let mut dirs = vec![a.clone(), b.clone()];
    dirs.extend(bg.iter().cloned());
    let with_bg = |hot: &str| {
        let mut v = vec![(hot.to_string(), 14)];
        v.extend(bg.iter().map(|d| (d.clone(), 1)));
        v
    };
    let churn = synth_mix(&MixSpec {
        name: "churn".into(),
        clients: CLIENTS,
        ops_per_client: ops_per_phase,
        seed,
        dirs: with_bg(&a),
        think: 5..60,
        weights: MixWeights::default(),
        file_size: 1024,
    });
    let mut reads = synth_mix(&MixSpec {
        name: "reads".into(),
        clients: CLIENTS,
        ops_per_client: ops_per_phase,
        seed: seed.wrapping_add(1),
        dirs: with_bg(&b),
        think: 5..60,
        weights: MixWeights {
            creat: 1,
            read: 1,
            stat: 1,
            unlink: 0,
            rename: 0,
            readdir: 12,
        },
        file_size: 1024,
    });
    rename_phase(&mut reads, "p2");
    // `synth_mix` gives every client exactly `ops_per_phase` records.
    let phase2 = vec![ops_per_phase; CLIENTS];
    let trace = concat("hotspot_shift", &[churn, reads]);
    let prop = max_dentries_per_client(&trace);
    Scenario {
        dirs,
        files: Vec::new(),
        trace,
        phase2,
        cache_property: ("client.dircache.dentries_per_client_max", prop),
    }
}

/// Rebalancer tick spacing: 1.1 virtual ms, just over the default probe
/// interval (1 ms), so every tick probes even after the driver's clock
/// ran a little past the boundary.
pub const WINDOW: u64 = 2_200_000;
