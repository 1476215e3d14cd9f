#!/usr/bin/env bash
# Symbol-level CPU profile of any workspace binary, without perf or
# valgrind: a wall-clock sampler preloaded into the program, a
# frame-pointer build, and reports from `nm` symbol tables.
#
#   scripts/profile.sh [--out DIR] [--only SYMBOL] [CARGO BUILD ARGS] -- [PROGRAM ARGS]
#
# Examples:
#   scripts/profile.sh --example native_overhead -- 4000
#   scripts/profile.sh --bin repro -p kacc-bench -- --quick fig10
#   scripts/profile.sh --manifest-path benchmark/Cargo.toml -- \
#       --workload native_cma --seed 1 --seconds 8 --trace 0
#   scripts/profile.sh --only execute_tolerant --manifest-path \
#       benchmark/Cargo.toml -- --workload survivable --seed 1 --seconds 8 --trace 0
#
# Everything before `--` goes to `cargo build --release`, which must
# build exactly one executable; it is built with frame pointers into
# DIR/target (default DIR: target/profile), so the normal build cache is
# left alone. Everything after `--` is passed to the program, run from
# the repository root.
#
# The sampler (DIR/sampler.so, built with DIR compiled in) arms a POSIX
# timer on CLOCK_MONOTONIC that sends SIGPROF 4000 times a second. Its
# handler walks the frame-pointer chain of the interrupted thread and
# stores the return addresses in a private buffer. A `fork` child re-arms
# its own timer and starts an empty buffer; the buffer is written out on
# `exit` and on `_exit`, which forked ranks leave by. A timer on the
# CPU-time clocks (ITIMER_PROF) loses most samples in a container, a
# wall-clock one does not; it also samples a process that is blocked,
# which is what a wait loop's cost looks like. The timer is per process:
# in a multi-threaded process each tick lands on one thread the kernel
# picks, so profile single-threaded runs (`repro --jobs 1`) or forked
# ranks.
#
# Reports (also saved as DIR/report.txt):
#   flat       the 25 symbols with the most samples whose innermost frame
#              is in the symbol (self time)
#   inclusive  the 25 symbols with the symbol anywhere on the stack
#   callers    for each of the top 8 flat symbols, its immediate callers
# With --only SYMBOL the three reports count only the samples whose
# stack has a frame whose name contains SYMBOL (a substring: `set_up`,
# `execute_tolerant`, `RankHeap::copy_within`), after a first line giving
# that subset's share of all samples; every percentage stays a share of
# all samples, so the subset's rows read as rows of the full report.
# Addresses are mapped to symbols through /proc/PID/maps (saved with the
# samples), the ELF program headers (`readelf -l`) and `nm -C`. Frames
# in the executable are named. A stripped shared library has only its
# exported (dynamic) symbols, and its internal functions (glibc's memmove
# variants, say) lie between them: a frame within 4 KiB past an exported
# symbol is named after it, and a frame farther away prints as the
# library and its ELF address, `libc.so.6+0x16db75`, which `addr2line -e`
# or a disassembler can place.
#
# Needs gcc, nm, readelf and python3.
set -euo pipefail
cd "$(dirname "${BASH_SOURCE[0]}")/.."

readonly HZ=4000 TOP=25
out=target/profile
only=""
build=()
while [[ $# -gt 0 ]]; do
    case "$1" in
        --out) out="$2"; shift 2 ;;
        --only) only="$2"; shift 2 ;;
        --) shift; break ;;
        *) build+=("$1"); shift ;;
    esac
done
for tool in gcc nm readelf python3; do
    command -v "$tool" >/dev/null || { echo "profile.sh: needs $tool" >&2; exit 2; }
done
mkdir -p "$out"
out="$(cd "$out" && pwd)"

# --- the sampler -------------------------------------------------------
cat >"$out/sampler.c" <<'EOF'
#define _GNU_SOURCE
#include <dlfcn.h>
#include <fcntl.h>
#include <pthread.h>
#include <signal.h>
#include <stdint.h>
#include <stdio.h>
#include <stdlib.h>
#include <string.h>
#include <sys/mman.h>
#include <time.h>
#include <ucontext.h>
#include <unistd.h>

#define MAX_DEPTH 64
#define MAX_WORDS (1u << 24) /* 128 MiB of u64 per process */

static uint64_t *buf;           /* [n, pc, ret1, ..., ret(n-1)] records */
static volatile uint32_t used;  /* words claimed */
static volatile int dropped;    /* records that did not fit */
static timer_t timer;
static const long interval_ns = 1000000000L / HZ;

static void on_prof(int sig, siginfo_t *si, void *ctx) {
    (void)sig; (void)si;
    ucontext_t *uc = ctx;
    uint64_t pc = uc->uc_mcontext.gregs[REG_RIP];
    uint64_t sp = uc->uc_mcontext.gregs[REG_RSP];
    uint64_t fp = uc->uc_mcontext.gregs[REG_RBP];
    uint64_t frames[MAX_DEPTH];
    uint32_t n = 0;
    frames[n++] = pc;
    /* Walk saved (fp, return address) pairs while they stay on this
     * stack, above the interrupted stack pointer and strictly rising. */
    while (n < MAX_DEPTH && fp >= sp && fp - sp < (8u << 20) && (fp & 7) == 0) {
        uint64_t next = ((uint64_t *)fp)[0];
        uint64_t ret = ((uint64_t *)fp)[1];
        if (ret < 4096) break;
        frames[n++] = ret;
        if (next <= fp) break;
        fp = next;
    }
    uint32_t at = __atomic_fetch_add(&used, n + 1, __ATOMIC_RELAXED);
    if (at + n + 1 > MAX_WORDS) { dropped++; return; }
    buf[at] = n;
    memcpy(&buf[at + 1], frames, n * sizeof(uint64_t));
}

static void arm(void) {
    struct sigevent ev;
    memset(&ev, 0, sizeof ev);
    ev.sigev_notify = SIGEV_SIGNAL;
    ev.sigev_signo = SIGPROF;
    if (timer_create(CLOCK_MONOTONIC, &ev, &timer) != 0) return;
    struct itimerspec it;
    it.it_interval.tv_sec = interval_ns / 1000000000L;
    it.it_interval.tv_nsec = interval_ns % 1000000000L;
    it.it_value = it.it_interval;
    timer_settime(timer, 0, &it, NULL);
}

static void in_child(void) {
    used = 0; /* the parent's samples are the parent's */
    dropped = 0;
    arm();    /* POSIX timers are not inherited across fork */
}

/* Write this process's samples and executable mappings; once. */
static void flush(void) {
    static int done;
    if (done || !buf) return;
    done = 1;
    timer_delete(timer);
    char path[4200];
    snprintf(path, sizeof path, "%s/samples.%d.txt", PROF_DIR, (int)getpid());
    FILE *f = fopen(path, "w");
    if (!f) return;
    FILE *maps = fopen("/proc/self/maps", "r");
    char line[4600];
    while (maps && fgets(line, sizeof line, maps)) {
        unsigned long lo, hi, off;
        char perms[8], dev[16], file[4096] = "";
        unsigned long inode;
        if (sscanf(line, "%lx-%lx %7s %lx %15s %lu %4095s", &lo, &hi, perms, &off, dev,
                   &inode, file) == 7 && perms[2] == 'x')
            fprintf(f, "map %lx %lx %lx %s\n", lo, hi, off, file);
    }
    if (maps) fclose(maps);
    uint32_t end = used < MAX_WORDS ? used : MAX_WORDS;
    for (uint32_t at = 0; at < end;) {
        uint64_t n = buf[at];
        if (n == 0 || at + 1 + n > end) break;
        fputc('s', f);
        for (uint64_t i = 0; i < n; i++) fprintf(f, " %lx", (unsigned long)buf[at + 1 + i]);
        fputc('\n', f);
        at += 1 + n;
    }
    if (dropped) fprintf(f, "dropped %d\n", dropped);
    fclose(f);
}

void _exit(int status) {
    flush();
    void (*real)(int) = (void (*)(int))dlsym(RTLD_NEXT, "_exit");
    real(status);
    for (;;) pause();
}

__attribute__((constructor)) static void start(void) {
    buf = mmap(NULL, MAX_WORDS * sizeof(uint64_t), PROT_READ | PROT_WRITE,
               MAP_PRIVATE | MAP_ANONYMOUS | MAP_NORESERVE, -1, 0);
    if (buf == MAP_FAILED) { buf = NULL; return; }
    struct sigaction sa;
    memset(&sa, 0, sizeof sa);
    sa.sa_sigaction = on_prof;
    sa.sa_flags = SA_SIGINFO | SA_RESTART;
    sigemptyset(&sa.sa_mask);
    sigaction(SIGPROF, &sa, NULL);
    pthread_atfork(NULL, NULL, in_child);
    atexit(flush);
    arm();
}
EOF
gcc -O2 -shared -fPIC -fno-omit-frame-pointer -DHZ="$HZ" -DPROF_DIR="\"$out\"" \
    -o "$out/sampler.so" "$out/sampler.c" -ldl -lrt -lpthread

# --- the frame-pointer build -------------------------------------------
exe=$(RUSTFLAGS="${RUSTFLAGS:-} -C force-frame-pointers=yes" CARGO_TARGET_DIR="$out/target" \
    cargo build --release --offline --message-format=json "${build[@]}" |
    sed -n 's/.*"executable":"\([^"]*\)".*/\1/p' | tail -n 1)
[[ -n "$exe" ]] || { echo "profile.sh: the build produced no executable" >&2; exit 2; }

# --- the run -----------------------------------------------------------
rm -f "$out"/samples.*.txt
echo "profile.sh: $exe $* (sampling at $HZ Hz)" >&2
status=0
LD_PRELOAD="$out/sampler.so" "$exe" "$@" || status=$?

# --- the reports -------------------------------------------------------
python3 - "$out" "$TOP" "$only" <<'EOF' | tee "$out/report.txt"
import bisect, collections, glob, os, re, subprocess, sys

out, top, only = sys.argv[1], int(sys.argv[2]), sys.argv[3]
HASH = re.compile(r"::h[0-9a-f]{16}$")
NEAR = 4096  # farthest a frame may lie past an exported symbol named for it

class Image:
    """One mapped ELF file: its LOAD segments and sorted symbols."""
    def __init__(self, path):
        self.loads, self.addrs, self.names = [], [], []
        try:
            hdrs = subprocess.run(["readelf", "-lW", path], capture_output=True, text=True).stdout
        except OSError:
            hdrs = ""
        for line in hdrs.splitlines():
            f = line.split()
            if f[:1] == ["LOAD"]:
                off, vaddr, filesz = int(f[1], 16), int(f[2], 16), int(f[4], 16)
                self.loads.append((off, vaddr, filesz))
        syms, self.exported_only = {}, False
        for flags in (["-C", "--defined-only"], ["-C", "-D", "--defined-only"]):
            self.exported_only = "-D" in flags
            res = subprocess.run(["nm", *flags, path], capture_output=True, text=True)
            for line in res.stdout.splitlines():
                f = line.split(" ", 2)
                if len(f) == 3 and f[1] in "tTwW" and f[0]:
                    syms.setdefault(int(f[0], 16), HASH.sub("", f[2]))
            if syms:
                break
        for a in sorted(syms):
            self.addrs.append(a)
            self.names.append(syms[a])
        self.base = os.path.basename(path)

    def name(self, off):
        vaddr = off
        for o, v, n in self.loads:
            if o <= off < o + n:
                vaddr = off - o + v
                break
        i = bisect.bisect_right(self.addrs, vaddr) - 1
        if i < 0 or (self.exported_only and vaddr - self.addrs[i] > NEAR):
            return f"{self.base}+{vaddr:#x}"
        return self.names[i]

images, stacks, procs, dropped = {}, [], 0, 0
for path in sorted(glob.glob(os.path.join(out, "samples.*.txt"))):
    procs += 1
    maps = []
    for line in open(path):
        f = line.split()
        if f[0] == "map":
            maps.append((int(f[1], 16), int(f[2], 16), int(f[3], 16), f[4]))
        elif f[0] == "dropped":
            dropped += int(f[1])
        elif f[0] == "s":
            frames = []
            for i, word in enumerate(f[1:]):
                # A return address points past its call: look up ret - 1.
                a = int(word, 16) - (1 if i else 0)
                for lo, hi, off, file in maps:
                    if lo <= a < hi and file.startswith("["):
                        frames.append(file)  # [vdso] and the like: no file to read
                        break
                    if lo <= a < hi:
                        if file not in images:
                            images[file] = Image(file)
                        frames.append(images[file].name(a - lo + off))
                        break
                else:
                    frames.append("[unknown]")
            stacks.append(frames)

total = len(stacks)
print(f"{total} samples from {procs} processes ({dropped} dropped)")
if not total:
    sys.exit(0)
if only:
    stacks = [s for s in stacks if any(only in f for f in s)]
    print(f"--only {only}: {len(stacks)} samples, {100 * len(stacks) / total:.2f}% of all")
flat = collections.Counter(s[0] for s in stacks)
incl = collections.Counter()
for s in stacks:
    incl.update(set(s))

def table(title, counts):
    print(f"\n{title}")
    for name, n in counts.most_common(top):
        print(f"{100 * n / total:6.2f}% {n:8d}  {name}")

table("flat (self)", flat)
table("inclusive", incl)
print("\ncallers of the top flat symbols")
for name, n in flat.most_common(min(top, 8)):
    callers = collections.Counter(s[1] if len(s) > 1 else "[root]" for s in stacks if s[0] == name)
    print(f"  {name} ({100 * n / total:.2f}%)")
    for caller, c in callers.most_common(5):
        print(f"      {100 * c / n:6.2f}%  {caller}")
EOF
exit "$status"
