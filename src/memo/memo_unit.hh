/**
 * @file
 * The per-core memoization unit (Section 3, Fig. 2).
 *
 * Combines the hashing unit (CRC engine + input queue timing), the hash
 * value registers, the L1 LUT (dedicated SRAM), the optional inclusive L2
 * LUT (carved from last-level-cache ways), and the quality monitor.
 *
 * The unit exposes the operations the five ISA-extension instructions
 * perform, each returning both the functional result and its timing so the
 * CPU model can account Table 4's latencies:
 *   feed()       <- ld_crc / reg_crc input streaming
 *   lookup()     <- lookup
 *   update()     <- update
 *   invalidate() <- invalidate
 */

#ifndef AXMEMO_MEMO_MEMO_UNIT_HH
#define AXMEMO_MEMO_MEMO_UNIT_HH

#include <array>
#include <cstdint>
#include <memory>
#include <optional>
#include <vector>

#include "common/events.hh"
#include "common/stats.hh"
#include "common/types.hh"
#include "crc/crc.hh"
#include "crc/hw_model.hh"
#include "memo/hash_value_registers.hh"
#include "memo/lut.hh"
#include "memo/quality_monitor.hh"
#include "obs/stats.hh"

namespace axmemo {

/**
 * Runtime approximation control (the "dynamic approach" of Section 3.1):
 * a fraction of execution is periodically spent in a profiling phase
 * where the unit returns miss even on hits, compares the LUT output
 * against the recomputed result, and adjusts the truncation level up or
 * down. Extra truncation is only ever applied to inputs the programmer
 * marked approximable (static n > 0); exact inputs stay exact.
 */
struct AdaptiveTruncationConfig
{
    bool enabled = false;
    /** Lookups between profiling phases (per logical LUT). */
    std::uint32_t profilePeriod = 2000;
    /** Sacrificed-and-verified hits per profiling phase. */
    std::uint32_t profileLength = 40;
    /** Mean relative error the controller steers toward. */
    double targetError = 0.01;
    /** Below target*raiseBand the controller truncates more. */
    double raiseBand = 0.25;
    /**
     * Hit rate at which the controller stops deepening: every level
     * change re-keys the LUT (existing entries become unreachable), so
     * truncating past the point of sufficient reuse only costs cold
     * restarts.
     */
    double hitTarget = 0.85;
    /** Bits the controller may add on top of the static level. */
    unsigned maxExtraBits = 14;
    /** Denominator floor for the relative error (see QualityMonitor). */
    double absoluteFloor = 1.0;
};

/**
 * L2 LUT content policy. The paper describes the L2 LUT as "inclusive"
 * (Section 3) yet also says L1 victims are "evicted to L2 LUT"
 * (Section 3.4) — the two readings differ in capacity utilization, so
 * both are implemented and compared by `axmemo run ablate_l2_policy`:
 *  - Inclusive: updates fill both levels; L1 victims are dropped (their
 *    data persists in L2); L2 victims back-invalidate L1.
 *  - Victim (exclusive): updates fill L1 only; L1 victims spill into
 *    L2; an L2 hit moves the entry back up and out of L2.
 */
enum class L2LutPolicy
{
    Inclusive,
    Victim
};

/** Full configuration of one memoization unit. */
struct MemoUnitConfig
{
    /** CRC algorithm used for hashing (32-bit in the paper). */
    CrcSpec crc = CrcSpec::crc32();
    /** Hardware CRC unit (8-bit parallel, unrolled x4 => 4 B/cycle). */
    CrcHwConfig crcHw{};

    /** L1 LUT geometry (dedicated SRAM, <= 16 KB). */
    LutConfig l1Lut{.name = "l1lut", .sizeBytes = 8 * 1024,
                    .dataBytes = 4};

    /** Optional inclusive L2 LUT (bytes of LLC ways); 0 disables it. */
    std::uint64_t l2LutBytes = 0;
    /** Content policy of the L2 LUT. */
    L2LutPolicy l2Policy = L2LutPolicy::Inclusive;
    /** L2 LUT probe latency = LLC hit latency (Table 4: 13 cycles). */
    Cycle l2LutLatency = 13;

    /** L1 LUT lookup/update latency (Table 4: 2 cycles). */
    Cycle l1LutLatency = 2;

    /** Input queue capacity in bytes; full queue stalls the CPU. */
    unsigned inputQueueBytes = 16;

    unsigned numLuts = maxLutsPerThread;
    unsigned numThreads = maxSmtThreads;

    QualityMonitorConfig quality{};
    AdaptiveTruncationConfig adaptive{};
};

/** Result of a lookup request. */
struct MemoLookupResult
{
    bool hit = false;
    /** Valid iff hit. */
    std::uint64_t data = 0;
    /** Total cycles, including waiting for pending CRC work. */
    Cycle latency = 0;
    /** Hit was served by the L2 LUT. */
    bool fromL2 = false;
};

/** Aggregate statistics of one memoization unit. */
struct MemoUnitStats
{
    std::uint64_t lookups = 0;
    std::uint64_t l1Hits = 0;
    std::uint64_t l2Hits = 0;
    std::uint64_t misses = 0;
    /** Hits sacrificed by the quality monitor (reported as misses). */
    std::uint64_t sampledHits = 0;
    /** Hits sacrificed by adaptive-truncation profiling phases. */
    std::uint64_t profiledHits = 0;
    /** Times the adaptive controller raised / lowered truncation. */
    std::uint64_t adaptiveRaises = 0;
    std::uint64_t adaptiveLowers = 0;
    std::uint64_t updates = 0;
    std::uint64_t invalidates = 0;
    std::uint64_t inputBytesHashed = 0;
    /** The quality monitor disabled memoization during the run. */
    bool monitorTripped = false;

    std::uint64_t hits() const { return l1Hits + l2Hits; }
    double
    hitRate() const
    {
        return lookups ? static_cast<double>(hits()) /
                             static_cast<double>(lookups)
                       : 0.0;
    }
};

/** The memoization unit; see file comment. */
class MemoizationUnit
{
  public:
    explicit MemoizationUnit(const MemoUnitConfig &config = {});

    const MemoUnitConfig &config() const { return config_; }

    /** The hashing engine (exposed for host-path introspection: the
     * Host trace flag reports which CRC data path is active). */
    const CrcEngine &engine() const { return engine_; }

    /** True while the quality monitor has not disabled memoization. */
    bool enabled() const { return !monitor_.tripped(); }

    /**
     * Stream @p nbytes of @p word into {lut, tid}'s CRC after truncating
     * the low @p truncBits bits (the ld_crc / reg_crc data path).
     * @return CPU stall cycles caused by a full input queue.
     */
    Cycle feed(LutId lut, ThreadId tid, std::uint64_t word, unsigned nbytes,
               unsigned truncBits, Cycle now);

    /** Perform the lookup instruction at cycle @p now. */
    MemoLookupResult lookup(LutId lut, ThreadId tid, Cycle now);

    /**
     * Perform the update instruction: write @p data into the entry
     * allocated by the preceding missed lookup. @return latency.
     */
    Cycle update(LutId lut, ThreadId tid, std::uint64_t data);

    /** Flash-invalidate one logical LUT. @return latency in cycles. */
    Cycle invalidate(LutId lut, ThreadId tid);

    /** Reset all state between runs (LUT contents, HVRs, stats). */
    void reset();

    const MemoUnitStats &stats() const { return stats_; }
    const QualityMonitor &monitor() const { return monitor_; }
    const LookupTable &l1() const { return l1_; }
    /** Null when the L2 LUT is disabled. */
    const LookupTable *l2() const { return l2_.get(); }

    /** Energy events: crc_bytes, hvr_access, lut_l1, lut_l2, ... */
    const EventCounters &events() const { return events_; }

    /** Extra truncation currently applied to approximable inputs. */
    unsigned extraTruncBits(LutId lut) const;

    /**
     * Close the hit streak still open at end of run so hitStreaks()
     * sums exactly to stats().hits(). Idempotent; the simulator calls
     * it at halt before snapshotting the distributions.
     */
    void finalizeDists();

    /** Lengths of runs of consecutive reported hits (a sacrificed hit
     * reads as a miss to the CPU and therefore ends a streak). */
    const Histogram &hitStreaks() const { return hitStreak_; }

    /** Per-lookup latency in cycles (count == stats().lookups). */
    const Distribution &lookupLatencies() const { return lookupLatency_; }

  private:
    enum class VerifyKind : std::uint8_t
    {
        None,
        Monitor, ///< quality-monitor sample
        Adaptive ///< adaptive-truncation profiling sample
    };

    struct PendingUpdate
    {
        bool active = false;
        std::uint64_t hash = 0;
        /** Why this miss is a sacrificed hit (None for true misses). */
        VerifyKind verify = VerifyKind::None;
        /** The data the LUT would have returned (for verification). */
        std::uint64_t lutData = 0;
    };

    /** Per-LUT state of the adaptive-truncation controller. */
    struct AdaptiveState
    {
        unsigned extraBits = 0;
        std::uint32_t sinceProfile = 0;
        bool profiling = false;
        std::uint32_t samples = 0;
        std::uint32_t profileLookups = 0;
        double errorSum = 0.0;
        /** Hit-rate window since the last adjustment decision. */
        std::uint64_t windowLookups = 0;
        std::uint64_t windowHits = 0;
        /**
         * Periods to wait before the next measured-phase raise. Every
         * level change re-keys the LUT and depresses the hit rate until
         * it re-warms; without backoff the controller would read its
         * own flush as "still deficient" and spiral to max depth.
         */
        std::uint32_t raiseBackoff = 1;
        std::uint32_t holdPeriods = 0;
    };

    void adaptiveObserve(LutId lut, std::uint64_t lutData,
                         std::uint64_t exactData);

    MemoLookupResult lookupImpl(LutId lut, ThreadId tid, Cycle now);

    PendingUpdate &pendingFor(LutId lut, ThreadId tid);
    void insertBoth(LutId lut, std::uint64_t hash, std::uint64_t data);

    MemoUnitConfig config_;
    CrcEngine engine_;
    CrcHwModel crcHw_;
    /** crcHw_.cyclesForBytes(n) for the word-feed sizes (n <= 8) and
     * for the input-queue capacity, precomputed once: feed() runs per
     * ld_crc/reg_crc and must not rediscover these constants. */
    std::array<Cycle, 9> feedCycles_{};
    Cycle queueCycles_ = 0;
    HashValueRegisters hvrs_;
    LookupTable l1_;
    std::unique_ptr<LookupTable> l2_;
    QualityMonitor monitor_;
    std::vector<PendingUpdate> pending_;
    std::vector<AdaptiveState> adaptive_;
    MemoUnitStats stats_;
    EventCounters events_;

    // Distribution stats (obs layer), maintained per lookup.
    Histogram hitStreak_;
    Distribution lookupLatency_;
    std::uint64_t curStreak_ = 0;
};

} // namespace axmemo

#endif // AXMEMO_MEMO_MEMO_UNIT_HH
