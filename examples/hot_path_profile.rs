//! A dependency-free sampling profiler and allocation-site recorder for
//! the commit path — the measurement under every hot-path change.
//!
//! ```text
//! RUSTFLAGS="-C force-frame-pointers=yes" CARGO_PROFILE_RELEASE_DEBUG=line-tables-only \
//!     cargo run --release --example hot_path_profile [-- ROWS]
//! ```
//!
//! Three workloads are profiled, each in two modes:
//!
//! - **`commit-stream`-shaped**: sequential query-flavor Fig. 1 commits
//!   on one long-lived simulator (handlers + queue);
//! - **`big-doc`-shaped**: the same tree over 2,000-node documents,
//!   commit and abort alternating (scan, materialisation, fragment
//!   capture, compensation) — `tests/common/big_doc.rs`;
//! - **`run_case`-shaped**: the chaos matrix's cases through
//!   `axml_chaos::run_case` (recovery, WAL, oracle).
//!
//! *CPU mode* arms `ITIMER_PROF`; the `SIGPROF` handler takes the
//! interrupted `rip`/`rbp`/`rsp` from its `ucontext` and walks the
//! frame-pointer chain, bounded by the `[stack]` range of
//! `/proc/self/maps`. *Allocation mode* records the same chain from inside
//! a counting `GlobalAlloc` on every allocation. Both write fixed-size
//! records into a buffer allocated up front, and both are symbolised
//! afterwards from `nm -C` of `/proc/self/exe` (and `nm -D` of the shared
//! libraries that own a sampled `rip`).
//!
//! Without `force-frame-pointers` the chains are short or wrong (never
//! unsafe: every read is inside the stack mapping), and self-time by `rip`
//! still holds. libc here is stripped, so its frames resolve to the
//! nearest *exported* symbol and are marked `~`. A leaf libc routine
//! (`memmove`) keeps no frame of its own; when `rip` is outside the
//! executable the word at `rsp` is taken as its return address if it
//! points into the executable's text.
//!
//! On targets other than linux/x86_64 this prints "unsupported" and
//! exits 0.

#[cfg(not(all(target_os = "linux", target_arch = "x86_64")))]
fn main() {
    println!("hot_path_profile: unsupported target (needs linux/x86_64)");
}

#[cfg(all(target_os = "linux", target_arch = "x86_64"))]
fn main() {
    imp::main();
}

#[cfg(all(target_os = "linux", target_arch = "x86_64"))]
#[path = "../tests/common/big_doc.rs"]
mod big_doc;

#[cfg(all(target_os = "linux", target_arch = "x86_64"))]
mod imp {
    use axml::prelude::*;
    use std::alloc::{GlobalAlloc, Layout, System};
    use std::collections::BTreeMap;
    use std::sync::atomic::{AtomicBool, AtomicPtr, AtomicUsize, Ordering::Relaxed};

    /// Return addresses kept per record.
    const DEPTH: usize = 24;
    /// Words per record: `rip` (0 in allocation mode), frame count, frames.
    const STRIDE: usize = DEPTH + 2;
    /// Records the buffer holds; later ones are counted as overflow.
    const CAPACITY: usize = 400_000;
    /// Requested sampling period, a prime number of microseconds. The
    /// kernel rounds it up to its timer tick, so expect 250–1000 Hz.
    const PERIOD_US: i64 = 499;
    /// Rows per table unless the first argument gives another count.
    const TOP: usize = 15;
    /// Upper bound on workload repetitions per CPU profile.
    const MAX_ROUNDS: usize = 2000;

    static BUF: AtomicPtr<usize> = AtomicPtr::new(std::ptr::null_mut());
    static LEN: AtomicUsize = AtomicUsize::new(0);
    static STACK_HI: AtomicUsize = AtomicUsize::new(0);
    static TEXT_LO: AtomicUsize = AtomicUsize::new(0);
    static TEXT_HI: AtomicUsize = AtomicUsize::new(0);
    static RECORD_ALLOCS: AtomicBool = AtomicBool::new(false);

    // ------------------------------------------------------------------
    // Recording (async-signal-safe: no allocation, no locks).
    // ------------------------------------------------------------------

    /// Walks the frame-pointer chain from `fp` and stores one record.
    ///
    /// # Safety
    /// `BUF` must point at `CAPACITY * STRIDE` writable words and
    /// `STACK_HI` must be the end of the calling thread's stack mapping.
    /// `fp`/`sp` may be arbitrary: a frame is only read when it lies
    /// inside `[sp, STACK_HI)`, which is mapped, and the chain must
    /// strictly ascend, so the walk terminates.
    unsafe fn record(rip: usize, mut fp: usize, sp: usize, leaf_return: usize) {
        let slot = LEN.fetch_add(1, Relaxed);
        if slot >= CAPACITY {
            return;
        }
        let hi = STACK_HI.load(Relaxed);
        // SAFETY: `slot < CAPACITY`, so the record lies inside the buffer.
        let rec = unsafe { std::slice::from_raw_parts_mut(BUF.load(Relaxed).add(slot * STRIDE), STRIDE) };
        rec[0] = rip;
        let mut n = 0;
        if leaf_return != 0 {
            rec[2] = leaf_return;
            n = 1;
        }
        while n < DEPTH && fp >= sp && fp.is_multiple_of(8) && fp.saturating_add(16) <= hi {
            // SAFETY: `[fp, fp + 16)` is inside the live part of the stack
            // mapping (checked above).
            let (next, ret) = unsafe { (*(fp as *const usize), *((fp + 8) as *const usize)) };
            if ret == 0 {
                break;
            }
            rec[2 + n] = ret;
            n += 1;
            if next <= fp {
                break;
            }
            fp = next;
        }
        rec[1] = n;
    }

    // Indices into `ucontext_t.uc_mcontext.gregs` (x86_64 glibc/musl).
    const REG_RBP: usize = 10;
    const REG_RSP: usize = 15;
    const REG_RIP: usize = 16;
    /// Byte offset of `gregs` in `ucontext_t`: `uc_flags`, `uc_link`, `uc_stack`.
    const GREGS_OFFSET: usize = 40;

    extern "C" fn on_sigprof(_sig: i32, _info: *mut u8, ucontext: *mut u8) {
        // SAFETY: the kernel passes a valid `ucontext_t` to an `SA_SIGINFO`
        // handler; `gregs` holds 23 registers at the offset above. The
        // buffer and stack bound were set before the timer was armed.
        unsafe {
            let gregs = ucontext.add(GREGS_OFFSET) as *const usize;
            let (rip, rbp, rsp) = (*gregs.add(REG_RIP), *gregs.add(REG_RBP), *gregs.add(REG_RSP));
            let (lo, hi) = (TEXT_LO.load(Relaxed), TEXT_HI.load(Relaxed));
            let mut leaf_return = 0;
            if !(lo..hi).contains(&rip) && rsp.is_multiple_of(8) && rsp.saturating_add(8) <= STACK_HI.load(Relaxed) {
                let word = *(rsp as *const usize);
                if (lo..hi).contains(&word) {
                    leaf_return = word;
                }
            }
            record(rip, rbp, rsp, leaf_return);
        }
    }

    /// Records the caller's stack if allocation recording is on. Inlined,
    /// so the chain starts at the allocator method's own frame.
    #[inline(always)]
    fn record_allocation() {
        if RECORD_ALLOCS.load(Relaxed) {
            let fp: usize;
            // SAFETY: reads a register; no memory or flags touched.
            unsafe { std::arch::asm!("mov {}, rbp", out(reg) fp, options(nomem, nostack, preserves_flags)) };
            // SAFETY: the buffer and the stack bound are set before the
            // flag is.
            unsafe { record(0, fp, fp, 0) };
        }
    }

    struct Recording;

    // SAFETY: every method forwards unchanged to `System`; recording only
    // reads the stack and writes the preallocated buffer.
    unsafe impl GlobalAlloc for Recording {
        unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
            record_allocation();
            // SAFETY: the caller's obligations are `System::alloc`'s.
            unsafe { System.alloc(layout) }
        }

        unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
            // SAFETY: `ptr` came from `System` with this layout.
            unsafe { System.dealloc(ptr, layout) }
        }

        unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
            record_allocation();
            // SAFETY: `ptr` came from `System` with this layout.
            unsafe { System.realloc(ptr, layout, new_size) }
        }
    }

    #[global_allocator]
    static GLOBAL: Recording = Recording;

    #[repr(C)]
    struct Timeval {
        sec: i64,
        usec: i64,
    }

    #[repr(C)]
    struct Itimerval {
        interval: Timeval,
        value: Timeval,
    }

    /// glibc's `struct sigaction` on x86_64.
    #[repr(C)]
    struct Sigaction {
        handler: usize,
        mask: [u64; 16],
        flags: i32,
        restorer: usize,
    }

    extern "C" {
        fn sigaction(signum: i32, act: *const Sigaction, old: *mut Sigaction) -> i32;
        fn setitimer(which: i32, new: *const Itimerval, old: *mut Itimerval) -> i32;
    }

    const SIGPROF: i32 = 27;
    const ITIMER_PROF: i32 = 2;
    const SA_SIGINFO: i32 = 4;
    const SA_RESTART: i32 = 0x1000_0000;

    fn set_sampling(period_us: i64) {
        let timer =
            Itimerval { interval: Timeval { sec: 0, usec: period_us }, value: Timeval { sec: 0, usec: period_us } };
        // SAFETY: `timer` is a valid `itimerval`; a null old-value is allowed.
        let rc = unsafe { setitimer(ITIMER_PROF, &timer, std::ptr::null_mut()) };
        assert_eq!(rc, 0, "setitimer failed");
    }

    // ------------------------------------------------------------------
    // Symbolisation.
    // ------------------------------------------------------------------

    /// One file-backed executable mapping of this process.
    struct Mapping {
        lo: usize,
        hi: usize,
        /// Runtime address of the file's vaddr 0.
        base: usize,
        path: String,
    }

    struct Symbols {
        exe: String,
        maps: Vec<Mapping>,
        /// Per mapped file: `(vaddr, name)` sorted by vaddr.
        tables: BTreeMap<String, Vec<(usize, String)>>,
    }

    fn read_maps() -> (Vec<Mapping>, usize) {
        let text = std::fs::read_to_string("/proc/self/maps").expect("/proc/self/maps is readable");
        let mut bases: BTreeMap<String, usize> = BTreeMap::new();
        let (mut maps, mut stack_hi) = (Vec::new(), 0);
        for line in text.lines() {
            let mut cols = line.split_whitespace();
            let (Some(range), Some(perms), Some(offset)) = (cols.next(), cols.next(), cols.next()) else { continue };
            let path = cols.nth(2).unwrap_or("").to_string();
            let Some((lo, hi)) = range.split_once('-') else { continue };
            let parse = |s: &str| usize::from_str_radix(s, 16).unwrap_or(0);
            let (lo, hi, offset) = (parse(lo), parse(hi), parse(offset));
            if path == "[stack]" {
                stack_hi = hi;
            }
            if !path.starts_with('/') {
                continue;
            }
            // A file's first mapping has offset 0 and sits at its load bias.
            let base = *bases.entry(path.clone()).or_insert(lo - offset);
            if perms.contains('x') {
                maps.push(Mapping { lo, hi, base, path });
            }
        }
        (maps, stack_hi)
    }

    fn nm(path: &str, dynamic: bool) -> Vec<(usize, String)> {
        let mut cmd = std::process::Command::new("nm");
        cmd.arg("-C").arg("--defined-only");
        if dynamic {
            cmd.arg("-D");
        }
        let Ok(out) = cmd.arg(path).output() else { return Vec::new() };
        let mut table: Vec<(usize, String)> = String::from_utf8_lossy(&out.stdout)
            .lines()
            .filter_map(|line| {
                let (addr, rest) = line.split_once(' ')?;
                let (kind, name) = rest.split_once(' ')?;
                if !matches!(kind, "t" | "T" | "w" | "W" | "i") {
                    return None;
                }
                // Legacy mangling ends in `::h<16 hex digits>`.
                let name = match name.rfind("::h") {
                    Some(i) if name.len() - i == 19 => &name[..i],
                    _ => name,
                };
                Some((usize::from_str_radix(addr, 16).ok()?, name.to_string()))
            })
            .collect();
        table.sort();
        table
    }

    impl Symbols {
        fn load(maps: Vec<Mapping>) -> Symbols {
            let exe = std::fs::read_link("/proc/self/exe").map(|p| p.display().to_string()).unwrap_or_default();
            let mut tables = BTreeMap::new();
            // By path: in the child, `/proc/self/exe` would be `nm` itself.
            tables.insert(exe.clone(), nm(&exe, false));
            Symbols { exe, maps, tables }
        }

        fn resolve(&mut self, addr: usize) -> String {
            let Some(m) = self.maps.iter().find(|m| (m.lo..m.hi).contains(&addr)) else {
                return "[unmapped]".to_string();
            };
            let in_exe = m.path == self.exe;
            let table = self.tables.entry(m.path.clone()).or_insert_with(|| nm(&m.path, true));
            let vaddr = addr - m.base;
            let name = match table.partition_point(|(a, _)| *a <= vaddr) {
                0 => "?",
                i => table[i - 1].1.as_str(),
            };
            if in_exe {
                name.to_string()
            } else {
                format!("{}:~{name}", m.path.rsplit('/').next().unwrap_or(&m.path))
            }
        }
    }

    /// True for frames that belong to this repository's crates.
    fn is_repo_frame(name: &str) -> bool {
        name.contains("axml") || name.starts_with("hot_path_profile")
    }

    // ------------------------------------------------------------------
    // Workloads.
    // ------------------------------------------------------------------

    /// A closed-loop stream workload: each call runs the next `txns`
    /// transactions of a simulator that is replaced after `pass` of them —
    /// a benchmark pass. Peers keep every context and journal entry, so an
    /// endless stream would profile the allocator growing the heap instead.
    /// Warmed up like a benchmark pass; the first warm-up happens here,
    /// outside the measured window.
    fn stream(
        build: impl Fn() -> Scenario,
        run: fn(&mut Scenario, std::ops::Range<u64>),
        (warm_up, pass, txns): (u64, u64, u64),
    ) -> impl FnMut() {
        let fresh = move || {
            let mut s = build();
            run(&mut s, 0..warm_up);
            (s, warm_up)
        };
        let (mut s, mut next) = fresh();
        move || {
            if next + txns > pass {
                (s, next) = fresh();
            }
            run(&mut s, next..next + txns);
            next += txns;
        }
    }

    fn commit_stream(txns: u64) -> impl FnMut() {
        fn run(s: &mut Scenario, steps: std::ops::Range<u64>) {
            for k in steps {
                if k > 0 {
                    s.sim.schedule_timer(k * 400, s.origin, 0);
                }
                s.sim.run_until((k + 1) * 400 - 1);
            }
        }
        stream(|| ScenarioBuilder::fig1().flavor(Flavor::Query).with_seed(0).build(), run, (100, 4000, txns))
    }

    fn big_doc(txns: u64) -> impl FnMut() {
        stream(|| crate::big_doc::scenario(0), crate::big_doc::run, (20, 200, txns))
    }

    fn run_cases(seeds: u64) -> impl FnMut() {
        let scenarios: Vec<String> = axml_chaos::SCENARIOS.iter().map(|s| s.to_string()).collect();
        let cases = axml_chaos::case_matrix(&scenarios, axml_chaos::Profile::all(), 0..seeds, true);
        move || {
            for case in &cases {
                std::hint::black_box(axml_chaos::run_case(case));
            }
        }
    }

    // ------------------------------------------------------------------
    // Reports.
    // ------------------------------------------------------------------

    fn records() -> (Vec<[usize; STRIDE]>, usize) {
        let taken = LEN.swap(0, Relaxed);
        let kept = taken.min(CAPACITY);
        // SAFETY: the first `kept` records were fully written before the
        // recorder was switched off, and nothing writes concurrently now.
        let words = unsafe { std::slice::from_raw_parts(BUF.load(Relaxed), kept * STRIDE) };
        let recs = words.chunks_exact(STRIDE).map(|c| c.try_into().expect("STRIDE words")).collect();
        (recs, taken - kept)
    }

    fn print_top(title: &str, counts: BTreeMap<String, u64>, total: u64, unit: &str) {
        let mut rows: Vec<(u64, String)> = counts.into_iter().map(|(k, v)| (v, k)).collect();
        rows.sort_by(|a, b| b.0.cmp(&a.0).then_with(|| a.1.cmp(&b.1)));
        let top = std::env::args().nth(1).and_then(|a| a.parse().ok()).unwrap_or(TOP);
        println!("  top {top} {title}:");
        for (n, name) in rows.into_iter().take(top) {
            println!("    {:>5.1}% {n:>8} {unit}  {name}", 100.0 * n as f64 / total.max(1) as f64);
        }
    }

    fn profile_cpu(name: &str, syms: &mut Symbols, mut work: impl FnMut(), min_samples: usize) {
        LEN.store(0, Relaxed);
        set_sampling(PERIOD_US);
        let mut rounds = 0;
        while LEN.load(Relaxed) < min_samples && rounds < MAX_ROUNDS {
            work();
            rounds += 1;
        }
        set_sampling(0);
        let (recs, overflow) = records();
        let total = recs.len() as u64;
        println!("\n== {name}: CPU, {total} samples over {rounds} round(s), {overflow} lost ==");
        let (mut own, mut inclusive, mut libc_from) = (BTreeMap::new(), BTreeMap::new(), BTreeMap::new());
        for rec in &recs {
            let leaf = syms.resolve(rec[0]);
            let mut seen: Vec<String> = vec![leaf.clone()];
            let mut repo_caller = None;
            for &ret in &rec[2..2 + rec[1]] {
                let f = syms.resolve(ret.saturating_sub(1));
                if repo_caller.is_none() && is_repo_frame(&f) {
                    repo_caller = Some(f.clone());
                }
                if !seen.contains(&f) {
                    seen.push(f);
                }
            }
            if !is_repo_frame(&leaf) {
                let from = repo_caller.unwrap_or_else(|| "?".to_string());
                *libc_from.entry(format!("{leaf}  <-  {from}")).or_insert(0u64) += 1;
            }
            *own.entry(leaf).or_insert(0u64) += 1;
            for f in seen {
                *inclusive.entry(f).or_insert(0u64) += 1;
            }
        }
        print_top("self frames", own, total, "samples");
        print_top("inclusive frames", inclusive, total, "samples");
        print_top("non-repository self time by nearest repository caller", libc_from, total, "samples");
    }

    /// `tag` labels the exact total on a line of its own (`alloc-count TAG
    /// N`). `tests/alloc_budget.rs` prints the same lines for the same
    /// `fig1` and `big-doc` windows, and CI fails unless they agree — a
    /// profiler that measured something else than the budgets gate would
    /// send the next optimisation after the wrong allocations.
    fn profile_allocs(name: &str, tag: &str, syms: &mut Symbols, mut work: impl FnMut(), per: (&str, u64)) {
        LEN.store(0, Relaxed);
        RECORD_ALLOCS.store(true, Relaxed);
        work();
        RECORD_ALLOCS.store(false, Relaxed);
        let (recs, overflow) = records();
        let total = recs.len() as u64 + overflow as u64;
        println!("\nalloc-count {tag} {total}");
        println!(
            "== {name}: allocations, {total} in all = {:.1} per {} ({overflow} past the buffer) ==",
            total as f64 / per.1 as f64,
            per.0
        );
        let mut sites = BTreeMap::new();
        for rec in &recs {
            // The site is the innermost repository frame and its caller.
            let mut chain = rec[2..2 + rec[1]]
                .iter()
                .map(|&ret| syms.resolve(ret.saturating_sub(1)))
                .skip_while(|f| !is_repo_frame(f));
            let site = match (chain.next(), chain.next()) {
                (Some(a), Some(b)) => format!("{a}  <-  {b}"),
                (Some(a), None) => a,
                _ => "?".to_string(),
            };
            *sites.entry(site).or_insert(0u64) += 1;
        }
        print_top("allocation sites", sites, recs.len() as u64, "allocs ");
    }

    pub fn main() {
        let (maps, stack_hi) = read_maps();
        assert!(stack_hi != 0, "no [stack] mapping in /proc/self/maps");
        STACK_HI.store(stack_hi, Relaxed);
        let mut syms = Symbols::load(maps);
        if let Some(m) = syms.maps.iter().find(|m| m.path == syms.exe) {
            TEXT_LO.store(m.lo, Relaxed);
            TEXT_HI.store(m.hi, Relaxed);
        }
        // Leaked on purpose: the signal handler and allocator hold the
        // pointer for the life of the process.
        BUF.store(Box::leak(vec![0usize; CAPACITY * STRIDE].into_boxed_slice()).as_mut_ptr(), Relaxed);

        let handler = on_sigprof as extern "C" fn(i32, *mut u8, *mut u8);
        let action =
            Sigaction { handler: handler as usize, mask: [0; 16], flags: SA_SIGINFO | SA_RESTART, restorer: 0 };
        // SAFETY: `action` is a valid `struct sigaction` whose handler has
        // the `SA_SIGINFO` signature; a null old-action is allowed.
        let rc = unsafe { sigaction(SIGPROF, &action, std::ptr::null_mut()) };
        assert_eq!(rc, 0, "sigaction failed");

        println!("hot_path_profile: frame-pointer sampler + allocation-site recorder");
        println!("(build with RUSTFLAGS=\"-C force-frame-pointers=yes\" or the call chains are unreliable)");
        profile_cpu("commit-stream-shaped (Fig. 1 query commits)", &mut syms, commit_stream(500), 4000);
        profile_allocs(
            "commit-stream-shaped (Fig. 1 query commits)",
            "fig1",
            &mut syms,
            commit_stream(200),
            ("txn", 200),
        );
        profile_cpu("big-doc-shaped (2,000-node documents, commit/abort)", &mut syms, big_doc(60), 4000);
        profile_allocs(
            "big-doc-shaped (2,000-node documents, commit/abort)",
            "big-doc",
            &mut syms,
            big_doc(40),
            ("txn", 40),
        );
        profile_cpu("run_case-shaped (chaos matrix, 4 seeds)", &mut syms, run_cases(4), 4000);
        profile_allocs("run_case-shaped (chaos matrix, 1 seed)", "run_case", &mut syms, run_cases(1), ("case", 25));
    }
}
