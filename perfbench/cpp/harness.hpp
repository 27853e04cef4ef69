/**
 * @file
 * Shared pieces of the end-to-end benchmark: the command line, the
 * platform, the value generator and table model the outputs are
 * checked against, sample statistics, operation accounting, the
 * segmented run every workload goes through and the one-line JSON
 * result.
 *
 * The benchmark drives the engine only through its public headers
 * (Database, Connection, and the introspection accessors they
 * expose), so every number it reports is measured from outside the
 * layer it names.
 */

#ifndef NVWAL_PERFBENCH_HARNESS_HPP
#define NVWAL_PERFBENCH_HARNESS_HPP

#include <chrono>
#include <cstdint>
#include <map>
#include <string>
#include <vector>

#include "db/connection.hpp"
#include "db/database.hpp"

namespace perfbench
{

using nvwal::RowId;

/** Command line: --workload NAME --seed N --seconds S --trace 0|1. */
struct Args
{
    std::string workload;
    std::uint64_t seed = 1;
    double seconds = 10.0;
    bool trace = false;
};

/** Bytes of a row value (unless a workload varies it); 8-byte keys. */
inline constexpr std::uint16_t kValueBytes = 100;
inline constexpr std::size_t kKeyBytes = 8;
/** Rows per set-up transaction. */
inline constexpr RowId kPopulateBatch = 1'000;

/** Host wall clock. */
using HostClock = std::chrono::steady_clock;

inline double
microsSince(HostClock::time_point start)
{
    return std::chrono::duration<double, std::micro>(HostClock::now() -
                                                     start)
        .count();
}

/**
 * One write of a key: its tag, unique among the key's writes, and the
 * value's length.
 */
struct Version
{
    std::uint32_t tag = 0;
    std::uint16_t bytes = kValueBytes;
};

/**
 * Row value for (seed, key, version): version.bytes pseudo-random
 * bytes. Every acknowledged write has a distinct value, so a read
 * shows exactly which write it observed.
 */
void makeValue(std::uint64_t seed, RowId key, Version version,
               nvwal::ByteBuffer *out);

/** The benchmark's own model of the table: key -> last acknowledged write. */
using Model = std::map<RowId, Version>;

/** Samples of one timing; quantiles by linear interpolation. */
class Samples
{
  public:
    void add(double v) { _v.push_back(v); }
    std::size_t size() const { return _v.size(); }
    void append(const Samples &other);
    /** q in [0, 1]; 0 when empty. */
    double quantile(double q) const;
    double median() const { return quantile(0.5); }
    double mean() const;

  private:
    mutable std::vector<double> _v;
    mutable bool _sorted = false;
};

/** Attempted/failed tallies of one operation kind. */
struct OpCount
{
    std::uint64_t attempted = 0;
    std::uint64_t failed = 0;
};

/** One metric as printed in the result line. */
struct Metric
{
    std::string name;
    double value;
    std::string unit;
};

/** Everything a run reports. */
struct Result
{
    OpCount txns;
    OpCount reads;
    OpCount recoveries;
    std::vector<std::string> errors;  //!< correctness violations
    std::vector<Metric> metrics;
    std::vector<std::string> notes;  //!< printed, not metrics

    void error(const std::string &what);
    void note(const std::string &what) { notes.push_back(what); }
    void metric(const std::string &name, double value,
                const std::string &unit)
    {
        metrics.push_back(Metric{name, value, unit});
    }
};

/** @p num / @p den, or 0 when @p den is 0. */
inline double
ratio(double num, double den)
{
    return den == 0 ? 0.0 : num / den;
}

/**
 * NVRAM heap bytes in use plus bytes of the database file, per key
 * and value byte of the rows in @p model; the sample is noted in
 * @p result.
 */
double storedPerLiveByte(nvwal::Env &env, const nvwal::DbConfig &config,
                         const Model &model, Result *result);

/** What one measured phase observed. */
struct Phase
{
    std::uint64_t txns = 0;
    std::uint64_t reads = 0;
    std::uint64_t userBytes = 0;  //!< key + value bytes committed
    double wallS = 0;
    nvwal::SimTime simNs = 0;
    Samples txnUs, txnSimUs, readUs;
    nvwal::StatsSnapshot delta;
    // Traced phase only: spans the benchmark records around its own
    // calls into each layer. Spans a workload cannot take stay empty
    // and report 0.
    Samples statementUs, commitUs, commitCkptUs, readSpanUs, dirtyScanUs,
        readPageUs;
    // What the benchmark's own layer probes cost inside the phase;
    // taken out of wallS, simNs and delta when the phase ends.
    double probeWallS = 0;
    nvwal::SimTime probeSimNs = 0;
    nvwal::StatsSnapshot probeDelta;

    /** Pool @p other's samples, counts, times and counter deltas. */
    void merge(const Phase &other);
};

/**
 * One workload, as the segmented run drives it. Each segment calls
 * setUp on a fresh platform and database, then timed, endStage,
 * model, stageInflight and commitInflight, and close last.
 */
class Workload
{
  public:
    Workload() = default;
    Workload(const Workload &) = delete;
    Workload &operator=(const Workload &) = delete;
    virtual ~Workload() = default;

    /** The engine configuration of set-up and of every reopen. */
    virtual nvwal::DbConfig dbConfig() const = 0;
    /**
     * Populate the freshly opened @p db (ending in a checkpoint) and
     * connect. Inputs derive from the seed and @p segment.
     */
    virtual nvwal::Status setUp(nvwal::Env &env, nvwal::Database &db,
                                int segment) = 0;
    /** Closed loop of whole rounds for @p seconds of wall time. */
    virtual void timed(Phase *p, double seconds, bool traced) = 0;
    /**
     * A fixed amount of work after a forced checkpoint, so the crash
     * image does not depend on where in a checkpoint cycle the timed
     * phase stopped.
     */
    virtual void endStage(Phase *p) = 0;
    /**
     * The table after every acknowledged commit; inconsistencies of the
     * workload's own records go to @p r unless it is null.
     */
    virtual Model model(Result *r) = 0;
    /** Bytes stored per live byte, asked once, after segment 0's end stage. */
    virtual double storedPerLive() = 0;
    /**
     * Run one more transaction up to its commit and apply its writes
     * to @p with_inflight.
     */
    virtual nvwal::Status stageInflight(Model *with_inflight) = 0;
    /** Commit the staged transaction; power may fail inside. */
    virtual nvwal::Status commitInflight() = 0;
    /** Drop every handle into the database. */
    virtual void close() = 0;
};

/**
 * Run @p w for args.seconds of timed phase, checking every output
 * against its model, and print the result: the end-to-end metrics, or
 * with args.trace the per-layer metrics.
 *
 * A run is kSegments segments, each on a fresh platform: set-up, its
 * share of the timed phase, the check of the whole table, a forced
 * checkpoint and the end stage, a power failure inside one more
 * commit, and timed reopens of the crash image. Returns the exit
 * status (1 when a set-up fails).
 */
int runSegments(const Args &args, Workload &w, Result &r);

int runSingleWriter(const Args &args);

} // namespace perfbench

#endif // NVWAL_PERFBENCH_HARNESS_HPP
