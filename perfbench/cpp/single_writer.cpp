/**
 * @file
 * The two single-writer workloads.
 *
 * update-large: a 25k-row table (a 5.4 MB file, all of it in the
 * pager's DRAM cache, far beyond the 16-entry WAL image cache). With
 * 100k rows the host commit time tracked the shared machine's memory
 * latency: its interquartile spread over 10 runs reached 0.25-0.28 of
 * the median, wider than any bound the benchmark may set.
 * Each transaction updates 4 uniformly random keys; then a separate
 * reader connection makes 4 uniformly random snapshot point reads.
 * Commit host cost here is dominated by whole-cache pager scans, and
 * reads miss the WAL image cache.
 *
 * append-window: a table held at 2,000 rows. Each transaction inserts
 * the next sequential key and deletes the oldest one; reads favour
 * the newest keys. The paper's small-transaction regime: the pager
 * scan is small, and commit cost is frame encode/placement, flush,
 * barrier and heap allocation.
 *
 * Both run one closed loop (one writer, one reader, same thread) and
 * commit with Durability::Sync.
 */

#include "common/rng.hpp"
#include "harness.hpp"
#include "sim/stats.hpp"

namespace perfbench
{

using namespace nvwal;

namespace
{

constexpr RowId kLargeRows = 25'000;
constexpr RowId kWindowRows = 2'000;
constexpr int kUpdatesPerTxn = 4;
constexpr int kReadsPerTxn = 4;
/**
 * append-window value lengths, uniform and mean 100 bytes: cell
 * positions, frame sizes and so the simulated costs then depend on
 * the seed, as they do through the random keys of the other workloads.
 */
constexpr std::uint64_t kMinWindowValue = 64;
constexpr std::uint64_t kMaxWindowValue = 136;
/** append-window reads: 7 of 8 hit one of the 32 newest keys. */
constexpr RowId kRecentKeys = 32;
/** Rounds of the end stage, after the forced checkpoint. */
constexpr std::uint64_t kEndStageRounds = 100;
/**
 * Stored bytes are sampled in the first segment, kStoredAfterCkpt
 * transactions after the first checkpoint that follows its
 * kStoredAtTxn-th transaction: a fixed position in both the run and
 * the checkpoint cycle. The single-writer engine is deterministic, so
 * the sample does not depend on how many transactions the host fits
 * into the run (append-window's file grows with every transaction) or
 * on whether the log was just truncated.
 */
constexpr std::uint64_t kStoredAtTxn = 1'000;
constexpr std::uint64_t kStoredAfterCkpt = 100;

enum class Shape
{
    UpdateLarge,
    AppendWindow,
};

CommitOptions
syncCommit()
{
    CommitOptions options;
    options.durability = Durability::Sync;
    return options;
}

/**
 * update-large value length of @p key: 90 to 110 bytes (mean 100),
 * fixed at set-up so every update rewrites its cell in place. The
 * spread makes frame sizes, and so the simulated latencies, depend on
 * the seed instead of repeating one cost level exactly.
 */
std::uint16_t
largeValueBytes(std::uint64_t seed, RowId key)
{
    std::uint64_t state = seed ^ (static_cast<std::uint64_t>(key) << 20);
    return static_cast<std::uint16_t>(90 + splitMix64(state) % 21);
}

/**
 * Read-only view of the writer's page cache that records which pages
 * a B-tree lookup visits, without fetching or counting anything.
 */
class CachedPathSource : public PageSource
{
  public:
    explicit CachedPathSource(Pager &pager) : _pager(pager) {}

    Status
    getPage(PageNo page_no, CachedPage **out) override
    {
        CachedPage *page = _pager.cached(page_no);
        if (page == nullptr)
            return Status::notFound("page not in the pager cache");
        touched.push_back(page_no);
        *out = page;
        return Status::ok();
    }
    std::uint32_t pageSize() const override { return _pager.pageSize(); }
    std::uint32_t usableSize() const override { return _pager.usableSize(); }
    PageNo rootPage() const override { return _pager.rootPage(); }

    std::vector<PageNo> touched;

  private:
    Pager &_pager;
};

void
accumulate(StatsSnapshot *into, const StatsSnapshot &d)
{
    for (const auto &[name, value] : d)
        (*into)[name] += value;
}

class SingleWriter : public Workload
{
  public:
    SingleWriter(const Args &args, Shape shape, Result &r)
        : _args(args), _shape(shape), _r(r)
    {}

    DbConfig
    dbConfig() const override
    {
        DbConfig config;
        config.walMode = WalMode::Nvwal;  // default scheme: UH+LS+Diff
        return config;
    }

    /** Populate keys [0, rows) with tag 0, checkpoint, connect. */
    Status
    setUp(Env &env, Database &db, int segment) override
    {
        _env = &env;
        _db = &db;
        _model.clear();
        const RowId rows =
            _shape == Shape::UpdateLarge ? kLargeRows : kWindowRows;
        for (RowId base = 0; base < rows; base += kPopulateBatch) {
            NVWAL_RETURN_IF_ERROR(db.begin());
            for (RowId k = base; k < std::min(rows, base + kPopulateBatch);
                 ++k) {
                Version version;
                if (_shape == Shape::UpdateLarge)
                    version.bytes = largeValueBytes(_args.seed, k);
                makeValue(_args.seed, k, version, &_value);
                NVWAL_RETURN_IF_ERROR(db.insert(k, _value));
                _model[k] = version;
            }
            NVWAL_RETURN_IF_ERROR(db.commit(Durability::Sync));
        }
        _lo = 0;
        _hi = rows;
        _nextTag = 0;
        NVWAL_RETURN_IF_ERROR(db.checkpoint());
        _rng = Rng(_args.seed * 0x2545F4914F6CDD1Dull + 7 + segment);
        _probeRng = Rng(_args.seed * 0x2545F4914F6CDD1Dull + 1009 + segment);
        _sampleStored = segment == 0;
        NVWAL_RETURN_IF_ERROR(db.connect(&_writer));
        return db.connect(&_reader);
    }

    void
    timed(Phase *p, double seconds, bool traced) override
    {
        const auto deadline =
            HostClock::now() + std::chrono::duration_cast<HostClock::duration>(
                                   std::chrono::duration<double>(seconds));
        while (HostClock::now() < deadline)
            round(p, traced);
    }

    void
    endStage(Phase *p) override
    {
        for (std::uint64_t i = 0; i < kEndStageRounds; ++i)
            round(p, false);
    }

    Model model(Result *) override { return _model; }

    double
    storedPerLive() override
    {
        if (_storedPerLive == 0) {
            _r.note("stored bytes sampled after the first segment's end "
                    "stage, which ended before the sample point");
            _storedPerLive =
                storedPerLiveByte(*_env, _db->config(), _model, &_r);
        }
        return _storedPerLive;
    }

    Status
    stageInflight(Model *with_inflight) override
    {
        std::vector<std::pair<RowId, Version>> writes;
        std::vector<RowId> removes;
        NVWAL_RETURN_IF_ERROR(_writer->begin());
        const Status s = statements(&writes, &removes, nullptr);
        for (const auto &[key, version] : writes)
            (*with_inflight)[key] = version;
        for (RowId key : removes)
            with_inflight->erase(key);
        return s;
    }

    Status commitInflight() override { return _writer->commit(syncCommit()); }

    void
    close() override
    {
        _writer.reset();
        _reader.reset();
    }

  private:
    /** One write transaction and its reads; traced rounds add a probe. */
    void
    round(Phase *p, bool traced)
    {
        writeTxn(p, traced);
        for (int i = 0; i < kReadsPerTxn; ++i)
            read(p, traced);
        if (traced)
            probeReadPath(p);
    }

    /** Run the transaction's statements; tags are recorded, not applied. */
    Status
    statements(std::vector<std::pair<RowId, Version>> *writes,
               std::vector<RowId> *removes, Samples *span)
    {
        double us = 0;
        Status s = Status::ok();
        if (_shape == Shape::UpdateLarge) {
            for (int i = 0; i < kUpdatesPerTxn && s.isOk(); ++i) {
                const RowId key =
                    static_cast<RowId>(_rng.nextBelow(kLargeRows));
                const Version version{++_nextTag,
                                      largeValueBytes(_args.seed, key)};
                makeValue(_args.seed, key, version, &_value);
                const auto t0 = HostClock::now();
                s = _writer->update(key, _value);
                us += microsSince(t0);
                writes->emplace_back(key, version);
            }
        } else {
            const RowId key = _hi;
            const Version version{
                ++_nextTag, static_cast<std::uint16_t>(
                                kMinWindowValue +
                                _rng.nextBelow(kMaxWindowValue -
                                               kMinWindowValue + 1))};
            makeValue(_args.seed, key, version, &_value);
            auto t0 = HostClock::now();
            s = _writer->insert(key, _value);
            us += microsSince(t0);
            writes->emplace_back(key, version);
            if (s.isOk()) {
                t0 = HostClock::now();
                s = _writer->remove(_lo);
                us += microsSince(t0);
                removes->push_back(_lo);
            }
        }
        if (span != nullptr)
            span->add(us);
        return s;
    }

    void
    writeTxn(Phase *p, bool traced)
    {
        std::vector<std::pair<RowId, Version>> writes;
        std::vector<RowId> removes;
        _r.txns.attempted++;
        const auto t0 = HostClock::now();
        const SimTime s0 = _env->clock.now();
        Status s = _writer->begin();
        if (s.isOk())
            s = statements(&writes, &removes,
                           traced ? &p->statementUs : nullptr);
        if (!s.isOk()) {
            (void)_writer->rollback();
        } else {
            if (traced) {
                // A probe, not part of the commit: its time is taken
                // out of the phase's wall time.
                const auto scan0 = HostClock::now();
                const std::vector<PageNo> dirty = _db->pager().dirtyPageNos();
                const double us = microsSince(scan0);
                p->dirtyScanUs.add(us);
                p->probeWallS += us / 1e6;
            }
            const std::uint64_t ckpts = _env->stats.get(stats::kCheckpoints);
            const auto c0 = HostClock::now();
            s = _writer->commit(syncCommit());
            if (traced) {
                const double us = microsSince(c0);
                if (_env->stats.get(stats::kCheckpoints) != ckpts)
                    p->commitCkptUs.add(us);
                else
                    p->commitUs.add(us);
            }
        }
        const double host_us = microsSince(t0);
        const SimTime sim_ns = _env->clock.now() - s0;
        if (!s.isOk()) {
            _r.txns.failed++;
            return;
        }
        p->txns++;
        p->txnUs.add(host_us);
        p->txnSimUs.add(static_cast<double>(sim_ns) / 1000.0);
        for (const auto &[key, version] : writes) {
            _model[key] = version;
            p->userBytes += kKeyBytes + version.bytes;
        }
        for (RowId key : removes) {
            _model.erase(key);
            p->userBytes += kKeyBytes;
        }
        if (_shape == Shape::AppendWindow) {
            _hi++;
            _lo++;
        }
        if (_sampleStored)
            maybeSampleStored();
    }

    void
    maybeSampleStored()
    {
        if (_storedPerLive != 0 || ++_committed < kStoredAtTxn)
            return;
        const std::uint64_t ckpts = _env->stats.get(stats::kCheckpoints);
        if (_committed == kStoredAtTxn) {
            _ckptsAtMark = ckpts;
            return;
        }
        if (ckpts == _ckptsAtMark)
            return;
        if (++_sinceCkpt == kStoredAfterCkpt)
            _storedPerLive =
                storedPerLiveByte(*_env, _db->config(), _model, &_r);
    }

    /** A key from the workload's read distribution, drawn from @p rng. */
    RowId
    readKey(Rng &rng)
    {
        if (_shape == Shape::UpdateLarge)
            return static_cast<RowId>(rng.nextBelow(kLargeRows));
        const std::uint64_t live = static_cast<std::uint64_t>(_hi - _lo);
        if (rng.nextBelow(8) != 0)
            return _hi - 1 - static_cast<RowId>(rng.nextBelow(kRecentKeys));
        return _lo + static_cast<RowId>(rng.nextBelow(live));
    }

    void
    read(Phase *p, bool traced)
    {
        const RowId key = readKey(_rng);
        _r.reads.attempted++;
        const auto t0 = HostClock::now();
        const Status s = _reader->get(key, &_got);
        const double us = microsSince(t0);
        if (!s.isOk()) {
            _r.reads.failed++;
            _r.error("read of key " + std::to_string(key) +
                     " failed: " + s.toString());
            return;
        }
        p->reads++;
        p->readUs.add(us);
        if (traced)
            p->readSpanUs.add(us);
        auto it = _model.find(key);
        if (it == _model.end()) {
            _r.error("read returned a value for absent key " +
                     std::to_string(key));
            return;
        }
        makeValue(_args.seed, key, it->second, &_value);
        if (_got != _value)
            _r.error("read of key " + std::to_string(key) +
                     " returned a value the model does not hold");
    }

    /**
     * Time WriteAheadLog::readPageAt at the current horizon across the
     * root-to-leaf path of one more key from the read distribution (not
     * one a read just fetched, whose images the WAL image cache would
     * still hold): one sample, the sum over the path. The probe's wall
     * time, counter and sim-clock effects are taken out of the phase,
     * so it does not inflate the figures it sits beside.
     */
    void
    probeReadPath(Phase *p)
    {
        const auto wall0 = HostClock::now();
        const StatsSnapshot before = _env->stats.snapshot();
        const SimTime sim0 = _env->clock.now();
        Table *table = nullptr;
        if (_db->openTable(Database::kDefaultTable, &table).isOk()) {
            CachedPathSource path(_db->pager());
            BTree tree(path, table->btree().rootPage());
            ByteBuffer ignored;
            (void)tree.get(readKey(_probeRng), &ignored);
            WriteAheadLog &wal = _db->wal();
            const CommitSeq horizon = wal.commitSeq();
            wal.pinSnapshot(horizon);
            _page.resize(_db->config().pageSize);
            double us = 0;
            for (PageNo page_no : path.touched) {
                const auto t0 = HostClock::now();
                // NotFound: no logged frame, the .db copy is current.
                (void)wal.readPageAt(
                    page_no, ByteSpan(_page.data(), _page.size()), horizon);
                us += microsSince(t0);
            }
            wal.unpinSnapshot(horizon);
            p->readPageUs.add(us);
        }
        p->probeSimNs += _env->clock.now() - sim0;
        accumulate(&p->probeDelta,
                   MetricsRegistry::delta(before, _env->stats.snapshot()));
        p->probeWallS += microsSince(wall0) / 1e6;
    }

    const Args &_args;
    const Shape _shape;
    Result &_r;
    Env *_env = nullptr;
    Database *_db = nullptr;
    Model _model;
    RowId _lo = 0;  //!< oldest live key (append-window)
    RowId _hi = 0;  //!< next key to insert
    Rng _rng{0};
    Rng _probeRng{0};  //!< probe keys, apart from the workload's stream
    std::uint32_t _nextTag = 0;
    std::unique_ptr<Connection> _writer;
    std::unique_ptr<Connection> _reader;
    ByteBuffer _value, _got, _page;
    bool _sampleStored = false;
    std::uint64_t _committed = 0;
    std::uint64_t _ckptsAtMark = 0;
    std::uint64_t _sinceCkpt = 0;
    double _storedPerLive = 0;
};

} // namespace

int
runSingleWriter(const Args &args)
{
    Result r;
    SingleWriter w(args,
                   args.workload == "update-large" ? Shape::UpdateLarge
                                                   : Shape::AppendWindow,
                   r);
    return runSegments(args, w, r);
}

} // namespace perfbench
