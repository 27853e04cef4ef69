#include "harness.hpp"

#include <sys/resource.h>

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <cstring>

#include "common/rng.hpp"
#include "sim/stats.hpp"

namespace perfbench
{

using namespace nvwal;

namespace
{

/** Set-ups per run, each followed by its share of the timed phase. */
constexpr int kSegments = 10;
/** Timed reopens of each segment's crash image. */
constexpr int kRecoveryReps = 3;
/**
 * The power failure fires at this device op of the in-flight commit:
 * inside its frame writes, so the commit is torn, never acknowledged.
 */
constexpr std::uint64_t kCrashAtOp = 6;

/** The platform every workload runs on (Nexus 5, 2 us NVRAM writes). */
EnvConfig
platformConfig()
{
    EnvConfig config;
    config.cost = CostModel::nexus5(2000);
    return config;
}

/** Key plus value bytes of every row of @p model. */
std::uint64_t
liveBytes(const Model &model)
{
    std::uint64_t bytes = 0;
    for (const auto &[key, version] : model)
        bytes += kKeyBytes + version.bytes;
    return bytes;
}

/**
 * Scan the whole default table through @p conn and compare it with
 * @p model. Returns an empty string on a match, else what differed.
 */
std::string
compareTable(Connection &conn, const Model &model, std::uint64_t seed)
{
    auto expected = model.begin();
    std::string diff;
    ByteBuffer want;
    const Status s = conn.scan(
        INT64_MIN, INT64_MAX, [&](RowId key, ConstByteSpan value) {
            if (expected == model.end() || expected->first != key) {
                diff = "unexpected key " + std::to_string(key);
                return false;
            }
            makeValue(seed, key, expected->second, &want);
            if (value.size() != want.size() ||
                std::memcmp(value.data(), want.data(), want.size()) != 0) {
                diff = "wrong value for key " + std::to_string(key);
                return false;
            }
            ++expected;
            return true;
        });
    if (!s.isOk())
        return "table scan failed: " + s.toString();
    if (!diff.empty())
        return diff;
    if (expected != model.end())
        return "missing key " + std::to_string(expected->first);
    return "";
}

/** Print the human summary, then the JSON result as the last line. */
void
printResult(const Args &args, const Result &r)
{
    std::printf("workload %s seed %llu trace %d\n", args.workload.c_str(),
                static_cast<unsigned long long>(args.seed),
                args.trace ? 1 : 0);
    std::printf("  write txns: attempted %llu failed %llu\n",
                static_cast<unsigned long long>(r.txns.attempted),
                static_cast<unsigned long long>(r.txns.failed));
    std::printf("  reads:      attempted %llu failed %llu\n",
                static_cast<unsigned long long>(r.reads.attempted),
                static_cast<unsigned long long>(r.reads.failed));
    std::printf("  recoveries: attempted %llu failed %llu\n",
                static_cast<unsigned long long>(r.recoveries.attempted),
                static_cast<unsigned long long>(r.recoveries.failed));
    for (const std::string &n : r.notes)
        std::printf("  %s\n", n.c_str());
    for (const Metric &m : r.metrics)
        std::printf("  %-36s %14.4f %s\n", m.name.c_str(), m.value,
                    m.unit.c_str());
    for (const std::string &e : r.errors)
        std::fprintf(stderr, "CHECK FAILED: %s\n", e.c_str());

    const std::uint64_t attempted = r.txns.attempted + r.reads.attempted +
                                    r.recoveries.attempted;
    const std::uint64_t failed =
        r.txns.failed + r.reads.failed + r.recoveries.failed;
    std::string line = "{\"correct\": ";
    line += r.errors.empty() ? "true" : "false";
    line += ", \"attempted\": " + std::to_string(attempted);
    line += ", \"failed\": " + std::to_string(failed);
    line += ", \"metrics\": {";
    bool first = true;
    for (const Metric &m : r.metrics) {
        char num[64];
        // Non-finite values are not JSON; report them as 0 (a metric
        // without samples) rather than emit an unparsable line.
        std::snprintf(num, sizeof(num), "%.17g",
                      std::isfinite(m.value) ? m.value : 0.0);
        line += first ? "" : ", ";
        line += "\"" + m.name + "\": {\"value\": " + num +
                ", \"unit\": \"" + m.unit + "\"}";
        first = false;
    }
    line += "}}";
    std::printf("%s\n", line.c_str());
    std::fflush(stdout);
}

/** Counter @p name in a delta snapshot (0 when absent). */
std::uint64_t
counter(const StatsSnapshot &delta, const std::string &name)
{
    auto it = delta.find(name);
    return it == delta.end() ? 0 : it->second;
}

/** Peak resident set of this process so far, in MB. */
double
peakRssMb()
{
    struct rusage usage;
    std::memset(&usage, 0, sizeof(usage));
    getrusage(RUSAGE_SELF, &usage);
    return static_cast<double>(usage.ru_maxrss) / 1024.0;  // KiB -> MB
}

/** @p a minus @p b, counter by counter, never below 0. */
StatsSnapshot
minus(StatsSnapshot a, const StatsSnapshot &b)
{
    for (const auto &[name, value] : b) {
        std::uint64_t &slot = a[name];
        slot = slot >= value ? slot - value : 0;
    }
    return a;
}

/**
 * Run @p body as one measured phase on @p env: wall time, simulated
 * time and counter deltas around it, less what the benchmark's own
 * probes inside it cost. The engine's sim-clock tracer is on when
 * @p traced.
 */
template <typename Body>
Phase
measure(Env &env, bool traced, const Body &body)
{
    Phase p;
    env.stats.tracer().setEnabled(traced);
    const StatsSnapshot before = env.stats.snapshot();
    const SimTime sim_start = env.clock.now();
    const auto start = HostClock::now();
    body(&p);
    p.wallS = microsSince(start) / 1e6 - p.probeWallS;
    p.simNs = env.clock.now() - sim_start - p.probeSimNs;
    p.delta = minus(MetricsRegistry::delta(before, env.stats.snapshot()),
                    p.probeDelta);
    env.stats.tracer().setEnabled(false);
    return p;
}

/**
 * The per-layer counters every workload reports from a traced phase,
 * as deltas of the engine's MetricsRegistry over that phase.
 * @p txns and @p reads are the phase's committed transactions and
 * snapshot reads; @p sim_ns is the simulated-clock advance.
 */
void
addCounterLayers(Result *r, const StatsSnapshot &d, std::uint64_t txns,
                 std::uint64_t reads, std::uint64_t sim_ns)
{
    const double t = static_cast<double>(txns);
    auto per_txn = [&](const char *name, const std::string &counter_name,
                       const char *unit) {
        r->metric(name, ratio(static_cast<double>(counter(d, counter_name)),
                              t),
                  unit);
    };

    const double snap_reads =
        static_cast<double>(counter(d, stats::kSnapshotReads));
    r->metric("db.snapshot_cache_hit_ratio",
              ratio(static_cast<double>(counter(d, stats::kSnapshotCacheHits)),
                    snap_reads),
              "ratio");

    per_txn("pager.cache_hits_per_txn", stats::kPagerCacheHits, "count");
    per_txn("pager.wal_reads_per_txn", stats::kPagerWalReads, "count");

    const double mat_hits =
        static_cast<double>(counter(d, stats::kWalMaterializeCacheHits));
    const double mat_misses =
        static_cast<double>(counter(d, stats::kWalMaterializeCacheMisses));
    r->metric("core.materialize_hit_ratio",
              ratio(mat_hits, mat_hits + mat_misses), "ratio");
    r->metric("core.frame_scan_steps_per_read",
              ratio(static_cast<double>(counter(d, stats::kWalFrameScanSteps)),
                    static_cast<double>(reads)),
              "count");
    const double frames =
        static_cast<double>(counter(d, stats::kNvramFramesWritten));
    r->metric("core.frames_per_txn", ratio(frames, t), "count");
    per_txn("core.bytes_logged_per_txn", stats::kNvramBytesLogged, "B");
    r->metric("core.full_frame_share",
              ratio(static_cast<double>(counter(d, stats::kWalFullPageFrames)),
                    frames),
              "ratio");
    const double bump = static_cast<double>(counter(d, stats::kWalBumpAllocs));
    const double node = static_cast<double>(counter(d, stats::kWalNodeAllocs));
    r->metric("core.bump_alloc_share", ratio(bump, bump + node), "ratio");
    const double ckpts = static_cast<double>(counter(d, stats::kCheckpoints));
    r->metric("core.ckpt_pages_per_checkpoint",
              ratio(static_cast<double>(counter(d, stats::kWalCkptPagesWritten)),
                    ckpts),
              "count");

    per_txn("heap.manager_calls_per_txn", stats::kHeapCalls, "count");
    per_txn("heap.sim_ns_per_txn", stats::kTimeHeapNs, "ns");

    per_txn("pmem.persist_barriers_per_txn", stats::kPersistBarriers,
            "count");
    per_txn("pmem.memory_barriers_per_txn", stats::kMemoryBarriers, "count");
    per_txn("pmem.flush_syscalls_per_txn", stats::kFlushSyscalls, "count");
    per_txn("pmem.flush_sim_ns_per_txn", stats::kTimeFlushNs, "ns");
    per_txn("pmem.persist_sim_ns_per_txn", stats::kTimePersistNs, "ns");
    per_txn("pmem.barrier_sim_ns_per_txn", stats::kTimeBarrierNs, "ns");
    per_txn("pmem.memcpy_sim_ns_per_txn", stats::kTimeMemcpyNs, "ns");
    per_txn("pmem.syscall_sim_ns_per_txn", stats::kTimeSyscallNs, "ns");

    per_txn("nvram.lines_flushed_per_txn", stats::kNvramLinesFlushed,
            "count");
    r->metric("nvram.bytes_read_per_read",
              ratio(static_cast<double>(counter(d, stats::kNvramBytesRead)),
                    static_cast<double>(reads)),
              "B");

    per_txn("blockdev.blocks_written_per_txn", stats::kBlocksWritten,
            "count");
    per_txn("fs.journal_blocks_per_txn", stats::kJournalBlocksWritten,
            "count");
    r->metric("fs.fsyncs_per_checkpoint",
              ratio(static_cast<double>(counter(d, stats::kFsyncs)), ckpts),
              "count");

    // Every simulated nanosecond should land in a time.* counter; the
    // remainder is what the time ledger does not yet attribute.
    std::uint64_t attributed = 0;
    for (const auto &[name, value] : d)
        if (name.rfind("time.", 0) == 0)
            attributed += value;
    const double unattributed =
        sim_ns > attributed ? static_cast<double>(sim_ns - attributed) : 0.0;
    r->metric("sim.unattributed_ns_per_txn", ratio(unattributed, t), "ns");
}

/**
 * Host figures of each segment of a run. A segment runs on its own
 * platform, and host times hold a level per platform, so a run
 * reports the mean over its segments of each segment's median: it
 * moves in proportion to how many platforms were slow, where a pooled
 * median would jump from one level to the other.
 */
struct Segments
{
    Samples setupS, txnP50Us, readP50Us, recoverMs, simRecoverMs;
};

/** Reopens of crashed media images, timed on both clocks. */
struct RecoveryRun
{
    Samples hostMs;
    Samples simMs;
    /** The database as the last reopen left it (null if it failed). */
    std::unique_ptr<Database> db;
};

/**
 * The end-to-end metrics of an untraced run: wall time, counts,
 * simulated latencies and counters from the pooled timed phase @p p,
 * host medians and set-up time from @p seg.
 */
void
addEndToEnd(Result *r, const Phase &p, const Segments &seg,
            double stored_per_live, double rss_mb, std::uint32_t block_size)
{
    r->metric("setup_s", seg.setupS.median(), "s");
    r->metric("txn_per_s", ratio(static_cast<double>(p.txns), p.wallS),
              "1/s");
    r->metric("txn_p50_us", seg.txnP50Us.mean(), "us");
    r->metric("read_p50_us", seg.readP50Us.mean(), "us");
    r->metric("recover_ms", seg.recoverMs.mean(), "ms");
    r->metric("sim_txn_per_s",
              ratio(static_cast<double>(p.txns),
                    static_cast<double>(p.simNs) / 1e9),
              "1/s");
    r->metric("sim_txn_p50_us", p.txnSimUs.median(), "us");
    r->metric("sim_txn_p99_us", p.txnSimUs.quantile(0.99), "us");
    r->metric("sim_recover_ms", seg.simRecoverMs.mean(), "ms");
    const double written =
        static_cast<double>(counter(p.delta, stats::kNvramBytesLogged)) +
        static_cast<double>(counter(p.delta, stats::kBlocksWritten)) *
            block_size;
    r->metric("bytes_written_per_user_byte",
              ratio(written, static_cast<double>(p.userBytes)), "B/B");
    r->metric("bytes_stored_per_live_byte", stored_per_live, "B/B");
    r->metric("peak_rss_mb", rss_mb, "MB");
}

/**
 * The per-layer metrics of a traced run: spans and counter deltas of
 * the traced half, and the tracing overhead against the untraced half.
 */
void
addLayers(Result *r, const Phase &traced, const Phase &untraced)
{
    r->metric("db.statement_us", traced.statementUs.median(), "us");
    r->metric("db.commit_us", traced.commitUs.median(), "us");
    r->metric("db.commit_ckpt_us", traced.commitCkptUs.median(), "us");
    r->metric("db.read_us", traced.readSpanUs.median(), "us");
    r->metric("pager.dirty_scan_us", traced.dirtyScanUs.median(), "us");
    r->metric("core.read_page_us", traced.readPageUs.median(), "us");
    addCounterLayers(r, traced.delta, traced.txns, traced.reads,
                     traced.simNs);
    // Wall time per committed transaction, loop included and the
    // benchmark's layer probes left out: what the spans and the
    // engine's sim-clock tracer cost a run.
    const double traced_us =
        ratio(traced.wallS * 1e6, static_cast<double>(traced.txns));
    const double plain_us =
        ratio(untraced.wallS * 1e6, static_cast<double>(untraced.txns));
    r->metric("trace.overhead_us_per_txn", traced_us - plain_us, "us");
}

/**
 * After a power failure: image the surviving media once, then restore
 * and reopen it @p reps times, timing each Database::recoverAfterCrash
 * and adding the samples to @p out. Every reopen recovers the identical
 * image, so its samples differ only by host noise. The caller has
 * destroyed every handle into the crashed database.
 */
void
timedRecoveries(Env &env, const DbConfig &config, int reps, Result *r,
                RecoveryRun *out)
{
    env.fs.crash();
    const Env::MediaSnapshot image = env.snapshotMedia();
    for (int i = 0; i < reps; ++i) {
        out->db.reset();
        env.restoreMedia(image);
        const auto start = HostClock::now();
        const SimTime sim_start = env.clock.now();
        const Status s = Database::recoverAfterCrash(env, config, &out->db);
        const double host_ms = microsSince(start) / 1000.0;
        r->recoveries.attempted++;
        if (!s.isOk()) {
            r->recoveries.failed++;
            r->error("recovery failed: " + s.toString());
            out->db.reset();
            return;
        }
        out->hostMs.add(host_ms);
        out->simMs.add(static_cast<double>(env.clock.now() - sim_start) /
                       1e6);
    }
}

/**
 * The recovered table must equal @p committed (every acknowledged
 * commit, the in-flight transaction lost) or @p with_inflight (the
 * in-flight transaction applied whole); anything else is an error.
 * Also runs Database::verifyIntegrity().
 */
void
checkRecovered(Database &db, const Model &committed,
               const Model &with_inflight, std::uint64_t seed, Result *r)
{
    std::unique_ptr<Connection> conn;
    const Status s = db.connect(&conn);
    if (!s.isOk()) {
        r->error("connect after recovery failed: " + s.toString());
        return;
    }
    const std::string lost = compareTable(*conn, committed, seed);
    if (!lost.empty()) {
        const std::string applied = compareTable(*conn, with_inflight, seed);
        if (!applied.empty())
            r->error("recovered table matches neither the acknowledged "
                     "commits (" + lost + ") nor them plus the whole "
                     "in-flight transaction (" + applied + ")");
    }
    conn.reset();
    const Status integrity = db.verifyIntegrity();
    if (!integrity.isOk())
        r->error("integrity after recovery: " + integrity.toString());
}

/** Schedule a pessimistic power failure @p ops device ops from now. */
void
armPowerFailure(Env &env, std::uint64_t ops)
{
    env.nvramDevice.setScheduledCrashPolicy(FailurePolicy::Pessimistic);
    env.nvramDevice.scheduleCrashAtOp(ops);
}

} // namespace

void
makeValue(std::uint64_t seed, RowId key, Version version, ByteBuffer *out)
{
    std::uint64_t state = seed * 0x9E3779B97F4A7C15ull ^
                          static_cast<std::uint64_t>(key) * 0xBF58476D1CE4E5B9ull ^
                          (static_cast<std::uint64_t>(version.tag) << 1);
    out->resize(version.bytes);
    for (std::size_t i = 0; i < out->size(); i += 8) {
        const std::uint64_t word = splitMix64(state);
        std::memcpy(out->data() + i, &word,
                    std::min<std::size_t>(8, out->size() - i));
    }
}

void
Samples::append(const Samples &other)
{
    _v.insert(_v.end(), other._v.begin(), other._v.end());
    _sorted = false;
}

double
Samples::quantile(double q) const
{
    if (_v.empty())
        return 0.0;
    if (!_sorted) {
        std::sort(_v.begin(), _v.end());
        _sorted = true;
    }
    const double pos = q * static_cast<double>(_v.size() - 1);
    const std::size_t lo = static_cast<std::size_t>(pos);
    const std::size_t hi = std::min(lo + 1, _v.size() - 1);
    const double frac = pos - static_cast<double>(lo);
    return _v[lo] + (_v[hi] - _v[lo]) * frac;
}

double
Samples::mean() const
{
    if (_v.empty())
        return 0.0;
    double sum = 0;
    for (double v : _v)
        sum += v;
    return sum / static_cast<double>(_v.size());
}

void
Phase::merge(const Phase &o)
{
    txns += o.txns;
    reads += o.reads;
    userBytes += o.userBytes;
    wallS += o.wallS;
    simNs += o.simNs;
    for (const auto &[name, value] : o.delta)
        delta[name] += value;
    txnUs.append(o.txnUs);
    txnSimUs.append(o.txnSimUs);
    readUs.append(o.readUs);
    statementUs.append(o.statementUs);
    commitUs.append(o.commitUs);
    commitCkptUs.append(o.commitCkptUs);
    readSpanUs.append(o.readSpanUs);
    dirtyScanUs.append(o.dirtyScanUs);
    readPageUs.append(o.readPageUs);
}

void
Result::error(const std::string &what)
{
    // Keep the first few; one broken invariant tends to repeat.
    if (errors.size() < 20)
        errors.push_back(what);
    else if (errors.size() == 20)
        errors.push_back("(further errors suppressed)");
}

double
storedPerLiveByte(Env &env, const DbConfig &config, const Model &model,
                  Result *r)
{
    const std::uint64_t heap_bytes =
        env.heap.countBlocks(BlockState::InUse) *
        static_cast<std::uint64_t>(env.heap.blockSize());
    const std::uint64_t file_bytes = env.fs.fileSize(config.name);
    const std::uint64_t live_bytes = liveBytes(model);
    r->note("stored: NVRAM heap " + std::to_string(heap_bytes) +
            " B, database file " + std::to_string(file_bytes) + " B, live " +
            std::to_string(live_bytes) + " B");
    return ratio(static_cast<double>(heap_bytes + file_bytes),
                 static_cast<double>(live_bytes));
}

int
runSegments(const Args &args, Workload &w, Result &r)
{
    // Why segments: host times hold a level per platform (reopens of
    // one image took 0.9 or 1.3 ms, depending on the platform), so one
    // run averages over several platforms. Samples and counters are
    // pooled over the segments.
    Segments segments;
    Phase untraced, traced;
    double stored_ratio = 0;
    double rss_mb = 0;
    int cut_commits = 0;
    // Each segment's host figures in run order, to show their levels.
    std::string seg_txn = "segment txn_p50_us:", seg_rate = "segment txn_per_s:";
    const double segment_s = args.seconds / kSegments;
    for (int seg = 0; seg < kSegments; ++seg) {
        const auto t0 = HostClock::now();
        auto env = std::make_unique<Env>(platformConfig());
        std::unique_ptr<Database> db;
        Status s = Database::open(*env, w.dbConfig(), &db);
        if (s.isOk())
            s = w.setUp(*env, *db, seg);
        if (!s.isOk()) {
            w.close();
            std::fprintf(stderr, "set-up failed: %s\n", s.toString().c_str());
            return 1;
        }
        segments.setupS.add(microsSince(t0) / 1e6);

        Phase timed;
        if (args.trace) {
            timed = measure(*env, false, [&](Phase *p) {
                w.timed(p, segment_s / 2, false);
            });
            traced.merge(measure(*env, true, [&](Phase *p) {
                w.timed(p, segment_s / 2, true);
            }));
        } else {
            timed = measure(*env, false,
                            [&](Phase *p) { w.timed(p, segment_s, false); });
        }
        untraced.merge(timed);

        // The whole table and the engine's own integrity check.
        std::unique_ptr<Connection> checker;
        if (db->connect(&checker).isOk()) {
            const std::string diff =
                compareTable(*checker, w.model(nullptr), args.seed);
            if (!diff.empty())
                r.error("final table: " + diff);
        } else {
            r.error("connect for the final check failed");
        }
        checker.reset();
        const Status integrity = db->verifyIntegrity();
        if (!integrity.isOk())
            r.error("final integrity: " + integrity.toString());

        const Status ckpt = db->checkpoint();
        if (!ckpt.isOk())
            r.error("checkpoint before the end stage: " + ckpt.toString());
        Phase end_stage;  // fixed work, not reported
        w.endStage(&end_stage);
        if (seg == 0) {
            stored_ratio = w.storedPerLive();
            // Before the first crash stage, which holds a media copy.
            rss_mb = peakRssMb();
        }

        // Power failure inside one more commit; every acknowledged
        // commit must survive it, the in-flight one all or nothing.
        Model committed = w.model(&r);
        Model with_inflight = committed;
        s = w.stageInflight(&with_inflight);
        bool crashed = false;
        if (s.isOk()) {
            armPowerFailure(*env, kCrashAtOp);
            try {
                s = w.commitInflight();
            } catch (const PowerFailure &) {
                crashed = true;
            }
            env->nvramDevice.scheduleCrashAtOp(0);
        }
        if (crashed) {
            ++cut_commits;
        } else {
            // The commit finished before the scheduled op: it was
            // acknowledged, so it must survive the power cut below.
            if (s.isOk())
                committed = with_inflight;
            else
                r.error("in-flight transaction failed: " + s.toString());
            env->nvramDevice.powerFail(FailurePolicy::Pessimistic);
        }
        w.close();
        db.reset();
        RecoveryRun rec;  // after env: its database goes first
        timedRecoveries(*env, w.dbConfig(), kRecoveryReps, &r, &rec);
        if (rec.db)
            checkRecovered(*rec.db, committed, with_inflight, args.seed, &r);
        char num[32];
        std::snprintf(num, sizeof(num), " %.1f", timed.txnUs.median());
        seg_txn += num;
        std::snprintf(num, sizeof(num), " %.0f",
                      ratio(static_cast<double>(timed.txns), timed.wallS));
        seg_rate += num;
        segments.txnP50Us.add(timed.txnUs.median());
        segments.readP50Us.add(timed.readUs.median());
        segments.recoverMs.add(rec.hostMs.median());
        segments.simRecoverMs.add(rec.simMs.median());
    }
    r.note("checkpoints in the timed phase: " +
           std::to_string(counter(untraced.delta, stats::kCheckpoints) +
                          counter(traced.delta, stats::kCheckpoints)));
    r.note(seg_txn);
    r.note(seg_rate);
    r.note("power failures that cut the in-flight commit: " +
           std::to_string(cut_commits) + " of " + std::to_string(kSegments));

    if (args.trace)
        addLayers(&r, traced, untraced);
    else
        addEndToEnd(&r, untraced, segments, stored_ratio, rss_mb,
                    platformConfig().cost.blockSize);
    printResult(args, r);
    return 0;
}

} // namespace perfbench
