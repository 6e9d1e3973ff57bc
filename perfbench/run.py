#!/usr/bin/env python3
"""Repository benchmark: taxonomic read, revision and fleet workloads.

Run from the repository root:

    python3 perfbench/run.py --workload lookup|revise|fleet --seed N \
        --seconds S --trace 0|1

It builds `pdb` and `perfbench/pbench.exe` with dune, generates a flora
from the seed, starts real `pdb` server processes on loopback, drives
them with checked taxonomic traffic for S seconds and prints a report.
The last line of standard output is one JSON object:
{"correct", "attempted", "failed", "metrics"}; with --trace 0 the
metrics are the end-to-end ones, with --trace 1 the per-layer ones.
See perfbench/README.md for the workloads, metrics and how to read them.
"""

import argparse
import collections
import ctypes
import hashlib
import json
import math
import os
import queue
import random
import re
import shutil
import signal
import socket
import statistics
import subprocess
import sys
import threading
import time
import urllib.parse
import urllib.request

PDB = os.path.join("_build", "default", "bin", "pdb.exe")
PBENCH = os.path.join("_build", "default", "perfbench", "pbench.exe")
WORK = ".perfbench-work"

# Fixed write rates (revisions per second).  Each was checked to leave
# no growing backlog at the commit that introduced the benchmark: the
# generator's lateness stays flat over the window.  The fleet's two
# reader pools rebuild a generation on nearly every commit; at 5/s and
# 2/s those rebuilds crowd the reads off a 2-vCPU host and read
# throughput swings by a fifth or more between runs (see README.md).
REVISE_RATE = 4.0
FLEET_RATE = 1.0

# Set-up is repeated and its median reported.
SETUPS = 3

# Seconds of traffic before the timed window, so the first generation
# rebuild and plan-cache fills are not timed.
WARMUP = 2.0

WORKLOADS = {
    # deployment, flora size, closed-loop reader connections, write rate,
    # read ops generated per reader connection (the stream wraps if a
    # fast server exhausts it; the oracle answers every distinct query).
    # BENCHMARK.json gates lookup and fleet; revise is run by hand (its
    # read figures swing too far from run to run on a 2-vCPU host to
    # gate on, see README.md).
    "lookup": dict(deploy="single", size="small", readers=2, rate=0.0, stream=60000),
    "revise": dict(deploy="pool", size="large", readers=1, rate=REVISE_RATE, stream=2000),
    "fleet": dict(deploy="fleet", size="small", readers=1, rate=FLEET_RATE, stream=60000),
}

END_TO_END = [
    ("setup_s", "s"),
    ("read_ops_per_s", "1/s"),
    ("read_p50_ms", "ms"),
    ("server_rss_mib", "MiB"),
]

PER_LAYER = [
    # end-to-end numbers that are not defined on every workload, or too
    # noisy to gate on (see README.md)
    ("read_p99_ms", "ms"),
    ("write_p50_ms", "ms"),
    ("write_p99_ms", "ms"),
    ("ryw_read_p50_ms", "ms"),
    ("ryw_read_p99_ms", "ms"),
    ("error_ratio", "ratio"),
    # server
    ("http.handler_us", "us"),
    ("http.outside_handler_us", "us"),
    ("loop.overloaded", "count"),
    ("loop.timeouts", "count"),
    # pool
    ("pool.parse_us", "us"),
    ("pool.exec_us.extent_scan", "us"),
    ("pool.plan_cache_hit_ratio", "ratio"),
    ("pool.extent_scans_per_query", "count"),
    ("pool.index_probes_per_query", "count"),
    # graph
    ("graph.csr_rebuilds", "count"),
    ("graph.csr_build_ms", "ms"),
    # reader pool
    ("reader_pool.refreshes", "count"),
    ("reader_pool.generation_build_ms", "ms"),
    ("reader_pool.generation_age_ms", "ms"),
    ("reader_pool.catchup_waits", "count"),
    ("reader_pool.fallthrough_ratio", "ratio"),
    ("reader_pool.handoff_us", "us"),
    # writer
    ("writer.commits_per_batch", "count"),
    ("writer.submit_wait_us", "us"),
    ("writer.body_us", "us"),
    # storage
    ("pager.cache_hit_ratio", "ratio"),
    ("pager.evictions", "count"),
    ("pager.page_reads", "count"),
    ("pager.page_writes_per_commit", "count"),
    ("pager.journal_bytes_per_commit", "B"),
    ("pager.fsync_us", "us"),
    ("mvcc.pinned_versions", "count"),
    ("mvcc.snapshot_reads", "count"),
    # replication
    ("repl.shipped_bytes_per_commit", "B"),
    ("repl.lag_lsns", "count"),
    ("repl.lag_ms", "ms"),
    ("repl.backlog_bytes", "B"),
    # cluster
    ("router.hop_us", "us"),
    ("router.retries", "count"),
    ("router.failed", "count"),
    # load generator and tracing
    ("loadgen.write_late_p99_ms", "ms"),
    ("trace.read_p50_overhead_pct", "%"),
    ("trace.read_ops_overhead_pct", "%"),
    ("trace.inproc_span_overhead_pct", "%"),
]

# POOL texts of the read ops.  Contexts are named, taxa picked by oid.
CTX = "first(select c from Context c where c.name = '{}')"
Q_NAME = "select oid(n) from Name n where n.epithet = '{}'"
Q_DESCENT = ("count(descendants(first(select t from Taxon t where oid(t) = {}), "
             "'Circumscribes', " + CTX + "))")
Q_PLACEMENT = ("select oid(first(sources(t, 'Circumscribes', " + CTX.format("flora") + "))), "
               "oid(first(sources(t, 'Circumscribes', " + CTX.format("revision") + "))) "
               "from Taxon t where oid(t) = {}")
PROBE = "count(select c from Context c)"


class BenchError(Exception):
    pass


T_START = time.monotonic()


def log(*a):
    print("[%6.1fs]" % (time.monotonic() - T_START), *a, file=sys.stderr, flush=True)


try:
    _prctl = ctypes.CDLL(None, use_errno=True).prctl
except (OSError, AttributeError):
    _prctl = None


def die_with_parent():
    """In a child: get SIGKILL if this script dies, however it dies
    (Linux PR_SET_PDEATHSIG), so no server outlives a failed run."""
    if _prctl is not None:
        _prctl(1, signal.SIGKILL)


def run(cmd, **kw):
    r = subprocess.run(cmd, stdout=subprocess.PIPE, stderr=subprocess.PIPE, text=True,
                       preexec_fn=die_with_parent, **kw)
    if r.stderr and r.returncode == 0:
        log(r.stderr.rstrip())
    if r.returncode != 0:
        raise BenchError("%s failed (%d): %s" % (" ".join(cmd), r.returncode, r.stderr.strip()[-2000:]))
    return r.stdout


# --- processes -------------------------------------------------------------


class Server:
    """A `pdb` process whose ready banner names its bound ports."""

    live = []

    def __init__(self, name, args, banner, timeout=60.0):
        self.name = name
        self.proc = subprocess.Popen([PDB] + args, stdout=subprocess.PIPE, stderr=subprocess.STDOUT,
                                     text=True, preexec_fn=die_with_parent)
        Server.live.append(self)
        self.lines = queue.Queue()
        self.tail = []
        threading.Thread(target=self._pump, daemon=True).start()
        deadline = time.monotonic() + timeout
        while True:
            try:
                line = self.lines.get(timeout=max(0.01, deadline - time.monotonic()))
            except queue.Empty:
                raise BenchError("%s: no ready banner within %.0fs" % (name, timeout))
            if line is None:
                raise BenchError("%s exited before its banner: %s" % (name, " | ".join(self.tail)))
            m = re.search(banner, line)
            if m:
                self.port = int(m.group(1))
                b = re.search(r"binary protocol on (\d+)", line)
                self.bport = int(b.group(1)) if b else None
                return

    def _pump(self):
        for line in self.proc.stdout:
            self.tail = (self.tail + [line.strip()])[-5:]
            self.lines.put(line)
        self.lines.put(None)

    def peak_rss_mib(self):
        with open("/proc/%d/status" % self.proc.pid) as f:
            for line in f:
                if line.startswith("VmHWM:"):
                    return int(line.split()[1]) / 1024.0
        raise BenchError("%s: no VmHWM" % self.name)

    def stop(self, sig=signal.SIGTERM, grace=10.0):
        if self.proc.poll() is None:
            self.proc.send_signal(sig)
            try:
                self.proc.wait(timeout=grace)
            except subprocess.TimeoutExpired:
                self.proc.kill()
                self.proc.wait()
        if self in Server.live:
            Server.live.remove(self)

    @staticmethod
    def stop_all():
        for s in list(Server.live):
            s.stop(grace=5.0)


def free_port():
    with socket.socket() as s:
        s.bind(("127.0.0.1", 0))
        return s.getsockname()[1]


def http_get(port, path, timeout=10.0):
    with urllib.request.urlopen("http://127.0.0.1:%d%s" % (port, path), timeout=timeout) as r:
        return r.status, r.read().decode()


def query_path(q):
    return "/query?q=" + urllib.parse.quote(q, safe="")


# --- dataset and op streams -------------------------------------------------


def read_keys(path):
    keys = {"ctx": {}, "family": [], "genus": [], "species": [], "epithet": []}
    for line in open(path):
        k, *rest = line.split()
        if k == "ctx":
            keys["ctx"][rest[0]] = int(rest[1])
        elif k in ("objects", "names"):
            keys[k] = int(rest[0])
        elif k == "epithet":
            keys[k].append(rest[0])
        else:
            keys[k].append(int(rest[0]))
    return keys


def read_op(rng, keys):
    """One read op: (kind, POOL text), drawn uniformly over all keys."""
    x = rng.random()
    if x < 0.5:
        return "name", Q_NAME.format(rng.choice(keys["epithet"]))
    if x < 0.8:
        group = rng.choice(keys["genus"] if rng.random() < 0.9 else keys["family"])
        return "descent", Q_DESCENT.format(group, rng.choice(["flora", "revision"]))
    return "placement", Q_PLACEMENT.format(rng.choice(keys["species"]))


def make_inputs(wl, seed, keys, seconds, dbfile):
    """Generate the op streams, answer every distinct query with the
    reference engine, and write the files `pbench` reads.  Returns the
    ops file per reader connection, the genera file and the digest."""
    rng = random.Random("ops-%d" % seed)
    streams = [[read_op(rng, keys) for _ in range(wl["stream"])] for _ in range(wl["readers"])]
    distinct = sorted({q for s in streams for _, q in s})
    qfile, afile = os.path.join(WORK, "queries.txt"), os.path.join(WORK, "answers.txt")
    with open(qfile, "w") as f:
        f.write("".join(q + "\n" for q in distinct))
    run([PBENCH, "oracle", dbfile, qfile, afile])
    answers = dict(zip(distinct, open(afile).read().split("\n")))
    bad = [q for q in distinct if answers[q].startswith("!error")]
    if bad:
        raise BenchError("reference engine failed on %d queries, e.g. %s: %s" % (len(bad), bad[0], answers[bad[0]]))
    digest = hashlib.sha256()
    ops_files = []
    for i, s in enumerate(streams):
        path = os.path.join(WORK, "reads%d.tsv" % i)
        text = "".join("%s\t%s\t%s\n" % (k, q, answers[q]) for k, q in s)
        digest.update(text.encode())
        with open(path, "w") as f:
            f.write(text)
        ops_files.append(path)
    n_rev = int(math.ceil(wl["rate"] * (seconds + WARMUP))) + 16
    genera = [rng.choice(keys["genus"]) for _ in range(n_rev)]
    genera_file = os.path.join(WORK, "genera.txt")
    text = "".join("%d\n" % g for g in genera)
    digest.update(text.encode())
    with open(genera_file, "w") as f:
        f.write(text)
    return ops_files, genera_file, digest.hexdigest(), len(distinct)


# --- deployments -------------------------------------------------------------

BANNER = r"serving on http://127\.0\.0\.1:(\d+)/"
ROUTER_BANNER = r"router on http://127\.0\.0\.1:(\d+)/"


class Deployment:
    """The workload's server processes over one generated flora."""

    def __init__(self, wl):
        self.wl = wl
        self.db = os.path.join(WORK, "flora.db")
        self.keys_file = os.path.join(WORK, "flora.keys")
        self.servers = {}

    def start(self, seed):
        t0 = time.monotonic()
        run([PBENCH, "gen", self.wl["size"], str(seed), self.db, self.keys_file])
        self.keys = read_keys(self.keys_file)
        d = self.wl["deploy"]
        if d == "single":
            self.servers["server"] = Server("server", ["serve", self.db, "-p", "0"], BANNER)
        elif d == "pool":
            self.servers["server"] = Server("server", ["serve", self.db, "-p", "0", "--readers", "1"], BANNER)
        else:
            rport = free_port()
            self.replica_db = os.path.join(WORK, "replica.db")
            p = Server("primary", ["serve", self.db, "-p", "0", "--cluster", "--primary", str(rport)], BANNER)
            self.servers["primary"] = p
            r = Server("replica", ["replica", self.replica_db, "--from", "127.0.0.1:%d" % rport,
                                   "-p", "0", "--promotable", "0"], BANNER)
            self.servers["replica"] = r
            self.servers["router"] = Server("router", [
                "router", "-p", "0", "--backends",
                "127.0.0.1:%d,127.0.0.1:%d" % (p.bport, r.bport)], ROUTER_BANNER)
        # set-up ends at the first correctly answered request
        deadline = time.monotonic() + 60
        while True:
            try:
                status, body = http_get(self.entry, query_path(PROBE), timeout=5)
                if status == 200 and body == "3\n":
                    break
            except OSError:
                pass
            if time.monotonic() > deadline:
                raise BenchError("no correct answer from the deployment within 60s")
            time.sleep(0.005)
        return time.monotonic() - t0

    @property
    def entry(self):
        s = self.servers.get("router") or self.servers["server"]
        return s.port

    @property
    def backends(self):
        return [s for n, s in self.servers.items() if n != "router"]

    @property
    def writer_node(self):
        return self.servers.get("primary") or self.servers["server"]

    def stop(self):
        for name in ("router", "replica", "primary", "server"):
            if name in self.servers:
                self.servers[name].stop()
        self.servers = {}

    def remove_files(self):
        for f in os.listdir(WORK):
            if f.startswith(("flora.db", "replica.db")):
                os.remove(os.path.join(WORK, f))


# --- load and records ---------------------------------------------------------


def run_load(dep, ops_files, genera_file, seconds, rate, tag, out, once=False, prior=None, warmup=WARMUP):
    """Run `pbench load` for warmup + seconds; the records of the warm-up
    are checked for correctness but left out of every timing."""
    cfg = ["seconds %f" % (seconds + warmup), "rate %f" % rate, "tag %s" % tag]
    if once:
        cfg.append("once")
    if prior:
        path = out + ".prior"
        with open(path, "w") as f:
            f.write("".join(a.split()[2] + "\n" for a in prior))
        cfg.append("prior %s" % path)
    for f in ops_files:
        cfg.append("reader %d %s" % (dep.entry, f))
    if rate > 0:
        cfg.append("writer %d %s %d" % (dep.entry, genera_file, dep.keys["ctx"]["working"]))
    path = out + ".cfg"
    with open(path, "w") as f:
        f.write("\n".join(cfg) + "\n")
    r = subprocess.run([PBENCH, "load", path, out], stderr=subprocess.PIPE, text=True, timeout=seconds + 120,
                       preexec_fn=die_with_parent)
    if r.stderr:
        log(r.stderr.rstrip())
    if r.returncode != 0:
        raise BenchError("pbench load failed (%d)" % r.returncode)
    return parse_records(open(out).read().splitlines(), warmup, seconds)


def parse_records(lines, warmup=0.0, seconds=float("inf")):
    """Latencies (ms) of the requests sent in the timed window, ends of
    the reads completed in it, acknowledged revisions and totals."""
    w0, w1 = warmup * 1e9, (warmup + seconds) * 1e9
    rec = {"R": [], "C": [], "L": [], "T": [], "late": [], "acked": [], "attempted": 0, "failed": 0,
           "reads_done": 0}
    for line in lines:
        p = line.split()
        if p[0] in ("R", "C", "L", "T"):
            due, start, end = int(p[2]), int(p[3]), int(p[4])
            if start >= w0:
                rec[p[0]].append((end - due) / 1e6)
            if p[0] == "R" and w0 <= end < w1:
                rec["reads_done"] += 1
        elif p[0] == "late":
            if int(p[1]) >= w0:
                rec["late"].append(int(p[2]) / 1e6)
        elif p[0] == "A":
            rec["acked"].append(" ".join(p[1:]))
        elif p[0] == "S":
            rec["attempted"], rec["failed"] = int(p[1]), int(p[2])
    return rec


def pct(values, q, min_samples=None):
    """Nearest-rank percentile; None when the sample cannot support it
    (by default a p99 needs 1000 samples, anything else one)."""
    if min_samples is None:
        min_samples = 1000 if q >= 0.99 else 1
    if not values or len(values) < min_samples:
        return None
    s = sorted(values)
    return s[max(0, int(math.ceil(q * len(s))) - 1)]


# --- scraping --------------------------------------------------------------------


def scrape_metrics(port):
    out = {}
    for line in http_get(port, "/metrics")[1].splitlines():
        if line and not line.startswith("#"):
            k, v = line.rsplit(" ", 1)
            out[k] = float(v)
    return out


def scrape_stats(port):
    return json.loads(http_get(port, "/stats")[1])


class Sampler(threading.Thread):
    """Samples gauges about once a second during the traced window."""

    def __init__(self, dep):
        super().__init__(daemon=True)
        self.dep = dep
        self.stop_ev = threading.Event()
        self.samples = {"age_ms": [], "pinned": [], "lag_lsns": [], "lag_ms": [], "backlog": []}

    def run(self):
        while not self.stop_ev.wait(1.0):
            try:
                w = self.dep.writer_node
                st = scrape_stats(w.port)
                if "generation_age_ms" in st.get("serving", {}):
                    self.samples["age_ms"].append(st["serving"]["generation_age_ms"])
                self.samples["pinned"].append(st["storage"]["pinned_versions"])
                if "replica" in self.dep.servers:
                    m = scrape_metrics(w.port)
                    self.samples["lag_lsns"].append(m.get("pdb_repl_lag_lsns", 0.0))
                    self.samples["lag_ms"].append(m.get("pdb_repl_lag_ns", 0.0) / 1e6)
                    self.samples["backlog"].append(m.get("pdb_repl_backlog_bytes", 0.0))
            except OSError:
                pass


def delta(before, after, key):
    return after.get(key, 0.0) - before.get(key, 0.0)


def ratio(a, b):
    return a / b if b else 0.0


def mean(v):
    return statistics.fmean(v) if v else 0.0


# --- integrity -----------------------------------------------------------------------


def wait_replica_caught_up(dep, timeout=60.0):
    p, r = dep.servers["primary"], dep.servers["replica"]
    deadline = time.monotonic() + timeout
    while time.monotonic() < deadline:
        pl = json.loads(http_get(p.port, "/repl")[1])["lsn"]
        rl = json.loads(http_get(r.port, "/repl")[1])["applied_lsn"]
        if pl == rl:
            return pl
        time.sleep(0.05)
    raise BenchError("replica did not catch up with the primary within %.0fs" % timeout)


def integrity(dep, wl, acked_revisions):
    """End-of-run checks; returns (lost, description)."""
    if wl["deploy"] == "pool":
        # process-crash durability: kill -9, reopen, every ack present
        dep.servers["server"].stop(sig=signal.SIGKILL)
        acked = os.path.join(WORK, "acked.txt")
        with open(acked, "w") as f:
            f.write("".join(a + "\n" for a in acked_revisions))
        r = subprocess.run([PBENCH, "acked", dep.db, acked, str(dep.keys["ctx"]["working"])],
                           stdout=subprocess.PIPE, stderr=subprocess.PIPE, text=True, preexec_fn=die_with_parent)
        m = re.search(r"acked (\d+) missing (\d+)", r.stdout)
        lost = int(m.group(2)) if m else len(acked_revisions)
        v = subprocess.run([PDB, "verify", dep.db], stdout=subprocess.PIPE, stderr=subprocess.STDOUT, text=True,
                           preexec_fn=die_with_parent)
        ok = r.returncode == 0 and v.returncode == 0
        return (0 if ok else max(1, lost)), "SIGKILL + reopen: %d acked revisions, %d lost; pdb verify exit %d" % (
            len(acked_revisions), lost, v.returncode)
    if wl["deploy"] == "fleet":
        lsn = wait_replica_caught_up(dep)
        dep.servers["router"].stop()
        dep.servers["replica"].stop()
        dep.servers["primary"].stop()
        same = open(dep.db, "rb").read() == open(dep.replica_db, "rb").read()
        return (0 if same else 1), "replica caught up at lsn %d; files byte-identical: %s" % (lsn, same)
    return 0, "read-only workload"


# --- environment -----------------------------------------------------------------


def environment():
    try:
        ocaml = subprocess.run(["ocamlfind", "ocamlopt", "-version"], stdout=subprocess.PIPE,
                               stderr=subprocess.DEVNULL, text=True).stdout.strip()
    except OSError:
        ocaml = "unknown"
    fs, best = "unknown", ""
    work = os.path.realpath(WORK)
    try:
        for line in open("/proc/mounts"):
            _, mnt, typ = line.split()[:3]
            if (work == mnt or work.startswith(mnt.rstrip("/") + "/")) and len(mnt) > len(best):
                fs, best = typ, mnt
    except OSError:
        pass
    return {"nproc": os.cpu_count(), "ocaml": ocaml or "unknown", "db_filesystem": fs,
            "flush_policy": "fsync per durable commit (as shipped)"}


# --- the run -------------------------------------------------------------------------


def summarize(rec, seconds):
    reads = rec["R"]
    writes = rec["C"] + rec["L"]
    return {
        "read_ops_per_s": (rec["reads_done"] / seconds, rec["reads_done"]),
        "read_p50_ms": (pct(reads, 0.5), len(reads)),
        "read_p99_ms": (pct(reads, 0.99), len(reads)),
        "write_p50_ms": (pct(writes, 0.5), len(writes)),
        "write_p99_ms": (pct(writes, 0.99), len(writes)),
        "ryw_read_p50_ms": (pct(rec["T"], 0.5), len(rec["T"])),
        "ryw_read_p99_ms": (pct(rec["T"], 0.99), len(rec["T"])),
        "error_ratio": (ratio(rec["failed"], rec["attempted"]), rec["attempted"]),
        # a validity check on the generator, so any sample will do
        "loadgen.write_late_p99_ms": (pct(rec["late"], 0.99, min_samples=1), len(rec["late"])),
    }


def self_test(dep, ops_files):
    """Feed one right and one deliberately wrong expectation: the checker
    must count exactly one failure."""
    first = open(ops_files[0]).readline().rstrip("\n").split("\t")
    path = os.path.join(WORK, "selftest.tsv")
    with open(path, "w") as f:
        f.write("\t".join(first) + "\n")
        f.write("\t".join(first[:2] + ["wrong" + first[2]]) + "\n")
    rec = run_load(dep, [path], None, 0.0, 0.0, "selftest", os.path.join(WORK, "selftest.out"), once=True,
                   warmup=0.0)
    if (rec["attempted"], rec["failed"]) != (2, 1):
        raise BenchError("answer-checking self-test: expected 1 of 2 failed, got %d of %d"
                         % (rec["failed"], rec["attempted"]))


def inproc_pass(dep, wl, ops_files, genera_file, seconds, tag):
    """The in-process traced pass over a copy of the flora as generated."""
    copy = os.path.join(WORK, "inproc.db")
    shutil.copyfile(dep.pristine, copy)
    cfg = os.path.join(WORK, "inproc.cfg")
    out = os.path.join(WORK, "inproc.out")
    lines = ["file %s" % copy, "mode %s" % ("legacy" if wl["deploy"] == "single" else "pool"),
             "seconds %f" % seconds, "rate %f" % wl["rate"], "tag %s" % tag, "reads %s" % ops_files[0]]
    if wl["rate"] > 0:
        lines.append("writer %s %d" % (genera_file, dep.keys["ctx"]["working"]))
    with open(cfg, "w") as f:
        f.write("\n".join(lines) + "\n")
    run([PBENCH, "inproc", cfg, out], timeout=seconds + 120)
    phases = {}
    spans = collections.defaultdict(lambda: (0, 0.0, 0.0))
    for line in open(out):
        p = line.split()
        if p[0] == "span":
            n, tot, self_ = int(p[2]), int(p[3]), int(p[4])
            spans[p[1]] = (n, tot / max(1, n) / 1e3, self_ / max(1, n) / 1e3)
        else:
            phases.setdefault(p[0], []).append(" ".join(p[1:]))
    return {k: parse_records(v) for k, v in phases.items()}, spans


def hop_pass(dep, ops_files, seconds, tag):
    """The same read stream sent direct to the replica and through the
    router; the latency difference is the router hop."""
    router = dep.servers["router"].port
    replica = dep.servers["replica"].port
    out, attempted, failed = {}, 0, 0
    for name, port in (("direct", replica), ("routed", router), ("direct2", replica), ("routed2", router)):
        path = os.path.join(WORK, "hop.cfg")
        with open(path, "w") as f:
            f.write("seconds %f\nrate 0\ntag %s\nreader %d %s\n" % (seconds / 4, tag, port, ops_files[0]))
        res = os.path.join(WORK, "hop.out")
        run([PBENCH, "load", path, res], timeout=seconds + 60)
        rec = parse_records(open(res).read().splitlines())
        attempted += rec["attempted"]
        failed += rec["failed"]
        out.setdefault(name.rstrip("2"), []).extend(rec["R"])
    hop = (statistics.median(out["routed"]) - statistics.median(out["direct"])) * 1e3
    return (hop, len(out["routed"]) + len(out["direct"])), attempted, failed


def per_layer(dep, before, after, st_before, st_after, sampler, rec):
    """Per-layer numbers from counter deltas over the traced window, as
    name -> (value, samples behind it)."""
    backends = [s.name for s in dep.backends]
    w = [dep.writer_node.name]

    def d(key, nodes=None):
        return sum(delta(before[n], after[n], key) for n in (nodes or backends))

    def per(num, den):
        return (ratio(num, den), den)

    def hist_mean(name, nodes=None, scale=1e3, labels=""):
        n = d(name + "_count" + labels, nodes)
        return (ratio(d(name + "_sum" + labels, nodes), n) / scale, n)

    def gauge(key):
        return (mean(sampler.samples[key]), len(sampler.samples[key]))

    m = {}
    handler = hist_mean("pdb_http_request_ns")
    client = rec["R"] + rec["C"] + rec["L"] + rec["T"]

    def count(key, nodes=None):
        # a plain count, over the requests of the window
        return (d(key, nodes), len(client))

    m["http.handler_us"] = handler
    m["http.outside_handler_us"] = (mean(client) * 1e3 - handler[0] if handler[1] else 0.0, len(client))
    m["loop.overloaded"] = count("pdb_loop_overload_total", list(dep.servers))
    m["loop.timeouts"] = count("pdb_loop_timeouts_total", list(dep.servers))
    m["pool.parse_us"] = hist_mean("pdb_query_parse_ns")
    # every read op of the stream scans an extent, so that is the only
    # execution kind that occurs
    m["pool.exec_us.extent_scan"] = hist_mean("pdb_query_exec_ns", labels='{kind="extent_scan"}')
    hits, misses = d("pdb_plan_cache_hits_total"), d("pdb_plan_cache_misses_total")
    m["pool.plan_cache_hit_ratio"] = per(hits, hits + misses)
    queries = d("pdb_queries_total")
    m["pool.extent_scans_per_query"] = per(d("pdb_query_extent_scans_total"), queries)
    m["pool.index_probes_per_query"] = per(d("pdb_query_index_probes_total"), queries)
    m["graph.csr_rebuilds"] = count("pdb_csr_rebuilds_total")
    m["graph.csr_build_ms"] = hist_mean("pdb_csr_build_ns", scale=1e6)
    m["reader_pool.refreshes"] = count("pdb_serving_refreshes_total")
    m["reader_pool.generation_age_ms"] = gauge("age_ms")
    m["reader_pool.catchup_waits"] = count("pdb_serving_catchup_waits_total")
    m["reader_pool.fallthrough_ratio"] = per(d("pdb_serving_fallthrough_total"), len(rec["T"]))
    g0 = st_before[w[0]].get("serving", {}).get("group", {})
    g1 = st_after[w[0]].get("serving", {}).get("group", {})
    m["writer.commits_per_batch"] = per(g1.get("commits", 0) - g0.get("commits", 0),
                                        g1.get("batches", 0) - g0.get("batches", 0))
    ch, cm = d("pdb_pager_cache_hits_total", w), d("pdb_pager_cache_misses_total", w)
    commits = d("pdb_pager_commits_total", w)
    m["pager.cache_hit_ratio"] = per(ch, ch + cm)
    m["pager.evictions"] = count("pdb_pager_evictions_total", w)
    m["pager.page_reads"] = count("pdb_pager_page_reads_total", w)
    m["pager.page_writes_per_commit"] = per(d("pdb_pager_page_writes_total", w), commits)
    m["pager.journal_bytes_per_commit"] = per(d("pdb_pager_journal_bytes_total", w), commits)
    m["pager.fsync_us"] = hist_mean("pdb_pager_fsync_ns", w)
    m["mvcc.pinned_versions"] = gauge("pinned")
    m["mvcc.snapshot_reads"] = count("pdb_mvcc_snapshot_reads_total", w)
    fleet = "router" in dep.servers
    m["repl.shipped_bytes_per_commit"] = per(d("pdb_repl_shipped_bytes_total", w) if fleet else 0.0, commits)
    m["repl.lag_lsns"] = gauge("lag_lsns")
    m["repl.lag_ms"] = gauge("lag_ms")
    m["repl.backlog_bytes"] = gauge("backlog")
    m["router.retries"] = count("pdb_router_retries_total", ["router"]) if fleet else (0.0, 0)
    m["router.failed"] = count("pdb_router_failed_total", ["router"]) if fleet else (0.0, 0)
    return m


def attribution(rec, layers, spans):
    """Split the traced window's mean client latency per op kind across
    the layers.  The client means come from the HTTP run; the layer
    parts inside the server from the in-process pass over the same ops,
    so the split is approximate: the edge is what the server's own work
    does not account for (event loop, sockets, client and, in fleet,
    whatever the router hop does not already cover)."""
    out = []
    hop = layers.get("router.hop_us", (0.0, 0))[0]
    for kind, client, inner in (
            ("read", rec["R"], ["reader_pool.read", "writer.read", "pool.query"]),
            ("ryw", rec["T"], ["reader_pool.read", "writer.read", "pool.query"]),
            ("write", rec["C"] + rec["L"], ["writer.submit", "writer.body"])):
        total = mean(client) * 1e3
        if not total or not spans[kind][0]:
            continue
        parts = [("router", hop), ("edge", total - hop - spans[kind][1])]
        parts += [(name, spans[kind + "/" + name][2]) for name in inner if spans[kind + "/" + name][0]]
        out.append("attribution %s mean %.1fus: " % (kind, total) +
                   ", ".join("%s %.1fus (%.0f%%)" % (k, v, 100 * v / total) for k, v in parts if k != "router" or v))
    return out


def main():
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args()
    wl = WORKLOADS[args.workload]

    if not (os.path.isfile("dune-project") and os.path.isfile(os.path.join("bin", "pdb.ml"))):
        raise BenchError("run from the root of a repository checkout (no dune-project / bin/pdb.ml here)")
    log("perfbench: building")
    # dune's shared cache would write outside the checkout
    run(["dune", "build", "./bin/pdb.exe", "./perfbench/pbench.exe"], timeout=1500,
        env=dict(os.environ, DUNE_CACHE="disabled"))

    shutil.rmtree(WORK, ignore_errors=True)
    os.makedirs(WORK)
    dep = Deployment(wl)
    report = []
    try:
        setups = []
        for i in range(SETUPS):
            setups.append(dep.start(args.seed))
            log("perfbench: set-up %d took %.2fs" % (i + 1, setups[-1]))
            if i < SETUPS - 1:
                dep.stop()
                dep.remove_files()
        if args.trace:
            # the in-process pass starts from the flora as generated
            dep.pristine = os.path.join(WORK, "pristine.db")
            run([PBENCH, "gen", wl["size"], str(args.seed), dep.pristine, os.path.join(WORK, "pristine.keys")])
        ops_files, genera_file, digest, n_distinct = make_inputs(wl, args.seed, dep.keys, args.seconds, dep.db)
        log("perfbench: %d reference answers computed" % n_distinct)
        self_test(dep, ops_files)
        log("perfbench: answer-checking self-test passed; timed window starts")
        env = environment()
        report.append("perfbench %s seed=%d seconds=%g trace=%d" % (args.workload, args.seed, args.seconds, args.trace))
        report.append("inputs sha256=%s (%d distinct read queries, %d objects)" % (digest, n_distinct, dep.keys["objects"]))
        report.append("environment " + json.dumps(env, sort_keys=True))
        tag = "%d_%d" % (args.seed, args.trace)
        layers = {}
        if args.trace:
            # thirds on the same servers: untraced, traced, untraced.  The
            # traced third against the mean of the other two is the cost
            # of tracing, with drift across the run (plan caches filling,
            # the database growing) cancelled to first order.
            window = args.seconds / 3
            acked = []

            def untraced(name):
                r = run_load(dep, ops_files, genera_file, window, wl["rate"], tag + name,
                             os.path.join(WORK, name + ".out"), prior=acked, warmup=WARMUP if not acked else 0.0)
                acked.extend(r["acked"])
                return r

            first = untraced("u1")
            before = {n: scrape_metrics(s.port) for n, s in dep.servers.items()}
            st_before = {n: scrape_stats(s.port) for n, s in dep.servers.items() if n != "router"}
            sampler = Sampler(dep)
            sampler.start()
            # no warm-up: the counter deltas must cover exactly the
            # requests recorded
            rec = run_load(dep, ops_files, genera_file, window, wl["rate"], tag + "t", os.path.join(WORK, "t.out"),
                           prior=acked, warmup=0.0)
            acked.extend(rec["acked"])
            sampler.stop_ev.set()
            sampler.join()
            after = {n: scrape_metrics(s.port) for n, s in dep.servers.items()}
            st_after = {n: scrape_stats(s.port) for n, s in dep.servers.items() if n != "router"}
            last = untraced("u2")
            layers = per_layer(dep, before, after, st_before, st_after, sampler, rec)
            traced = summarize(rec, window)
            plain = [summarize(first, window), summarize(last, window)]
            for metric, name, sign in (("read_p50_ms", "trace.read_p50_overhead_pct", 1),
                                       ("read_ops_per_s", "trace.read_ops_overhead_pct", -1)):
                base = mean([p[metric][0] for p in plain])
                layers[name] = (sign * 100 * ratio(traced[metric][0] - base, base), traced[metric][1])
            attempted = first["attempted"] + rec["attempted"] + last["attempted"]
            failed = first["failed"] + rec["failed"] + last["failed"]
        else:
            window = args.seconds
            rec = run_load(dep, ops_files, genera_file, window, wl["rate"], tag, os.path.join(WORK, "load.out"))
            attempted, failed, acked = rec["attempted"], rec["failed"], rec["acked"]
        rss = sum(s.peak_rss_mib() for s in dep.servers.values())
        n_servers = len(dep.servers)
        if args.trace and wl["deploy"] == "fleet":
            layers["router.hop_us"], n, bad = hop_pass(dep, ops_files, 4.0, tag + "h")
            attempted += n
            failed += bad
        log("perfbench: window done; end-of-run integrity checks")
        lost, integ = integrity(dep, wl, acked)
        log("perfbench: " + integ)
        dep.stop()
        if args.trace:
            phases, spans = inproc_pass(dep, wl, ops_files, genera_file, 4.0, tag + "i")
            for ph in phases.values():
                attempted += ph["attempted"]
                failed += ph["failed"]
            p50 = {k: statistics.median(v["R"]) for k, v in phases.items()}
            layers["trace.inproc_span_overhead_pct"] = (
                100 * ratio(p50["traced"] - p50["plain"], p50["plain"]), len(phases["traced"]["R"]))
            layers["reader_pool.generation_build_ms"] = (spans["generation"][1] / 1e3, spans["generation"][0])
            for metric, key, field in (("reader_pool.handoff_us", "read/reader_pool.read", 2),
                                       ("writer.submit_wait_us", "write/writer.submit", 2),
                                       ("writer.body_us", "write/writer.body", 1)):
                layers[metric] = (spans[key][field], spans[key][0])
            for name in sorted(k for k in spans if not k.startswith("?")):
                n, tot, self_ = spans[name]
                if n:
                    report.append("span %-36s n=%-6d mean=%10.1fus self=%10.1fus" % (name, n, tot, self_))
            report.extend(attribution(rec, layers, spans))
        failed += lost
        report.append("integrity " + integ)

        measured = summarize(rec, window)
        measured["setup_s"] = (statistics.median(setups), len(setups))
        measured["server_rss_mib"] = (rss, n_servers)
        measured.update(layers)
        units = dict(END_TO_END + PER_LAYER)
        for name, (value, n) in sorted(measured.items()):
            report.append("metric %-36s %14s %-5s samples=%d" % (
                name, "n/a" if value is None else "%.4f" % value, units[name], n))
        print("\n".join(report), flush=True)
        names = PER_LAYER if args.trace else END_TO_END
        metrics = {n: {"value": float(measured.get(n, (0.0,))[0] or 0.0), "unit": u} for n, u in names}
        print(json.dumps({"correct": failed == 0, "attempted": attempted, "failed": failed, "metrics": metrics}))
    finally:
        Server.stop_all()
        shutil.rmtree(WORK, ignore_errors=True)


def on_signal(signum, _frame):
    raise BenchError("stopped by signal %d" % signum)


if __name__ == "__main__":
    for sig in (signal.SIGTERM, signal.SIGINT, signal.SIGHUP):
        signal.signal(sig, on_signal)
    try:
        main()
    except BenchError as e:
        log("perfbench: error: %s" % e)
        sys.exit(1)
