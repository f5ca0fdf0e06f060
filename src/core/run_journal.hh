/**
 * @file
 * The sweep checkpoint journal: crash-safe resume for long sweeps.
 *
 * While a sweep executes, every successfully completed job is appended
 * to `<label>_sweep.ckpt` as one self-contained JSONL record and the
 * line is flushed immediately, so a SIGKILL (or power loss after the OS
 * buffers drain) costs at most the jobs that were in flight. A later
 * `axmemo run --resume` loads the journal before phase A, keys each
 * record against the re-enqueued jobs, and replays matching outcomes
 * instead of re-simulating them.
 *
 * Identity. A record's key is the job's full identity:
 * `workload|mode|scored|<canonical config JSON>` (core/config_io). The
 * canonical serialization guarantees string equality == configuration
 * equality, so changing any knob between run and resume silently
 * invalidates exactly the affected jobs — they re-simulate, the rest
 * replay.
 *
 * Fidelity. A record keeps what the reduce step reads, not the job's
 * output vector: the run's SimStats with every distribution bucket,
 * energy breakdown, regions and a digest of its outputs (FNV-1a-64,
 * one output word per step; digestOutputs());
 * for a scored job also the baseline's (same fields, its own digest),
 * the scalar scores and the Fig. 10b error CDF as exact value/count
 * runs. The comparison's subject is the record's own run. Doubles are
 * written in shortest round-trip form, so a resumed run's reports are
 * byte-identical to an uninterrupted run's (host timing excluded; see
 * RuntimeOptions::reportTiming).
 *
 * Versions. The header line names the format version. Records of
 * versions 1 and 2 do not decode (they carry no output digest), so
 * their jobs re-simulate. Version 4 changed only the digest, from one
 * byte per step to one output word per step, so version-3 records
 * still decode; the header keeps them out: a resume of a journal
 * whose header is not the current version starts the file afresh
 * rather than appending under the old header, and probe() (with it
 * `axmemo merge`) rejects the file.
 *
 * Tolerance. load() ignores any line it cannot parse — in particular a
 * torn final line from a mid-write kill. An ignored line only means
 * that job re-simulates; determinism makes that equivalent to a replay.
 */

#ifndef AXMEMO_CORE_RUN_JOURNAL_HH
#define AXMEMO_CORE_RUN_JOURNAL_HH

#include <cstdio>
#include <string>
#include <unordered_map>
#include <utility>

#include "common/expected.hh"
#include "core/sweep.hh"

namespace axmemo {

/** Append-side handle and codec for the sweep checkpoint journal. */
class SweepJournal
{
  public:
    SweepJournal() = default;
    ~SweepJournal();

    SweepJournal(const SweepJournal &) = delete;
    SweepJournal &operator=(const SweepJournal &) = delete;

    /** The format version written in, and required of, the header. */
    static constexpr int version = 4;

    /** Journal path for sweep label @p label inside @p outDir. */
    static std::string pathFor(const std::string &label,
                               const std::string &outDir);

    /** Full identity of @p job (see file comment). */
    static std::string jobKey(const SweepJob &job);

    /** One JSONL record (no trailing newline) for a completed job. */
    static std::string encodeLine(const std::string &key,
                                  const SweepOutcome &outcome);

    /** Inverse of encodeLine; Parse errors mean "skip this line". A
     * decoded run has no outputs, only their digest. */
    static Expected<std::pair<std::string, SweepOutcome>>
    decodeLine(const std::string &line);

    /** The --isolate pipe's line: @p run with its outputs, which the
     * parent process still has to score. */
    static std::string encodeRunLine(const RunResult &run);

    /** Inverse of encodeRunLine; a Parse error also when the outputs
     * do not match their digest. */
    static Expected<RunResult> decodeRunLine(const std::string &line);

    /** What probe() learned about a journal file's header. */
    struct HeaderInfo
    {
        int version = 0;
    };

    /**
     * Validate @p path's version header without loading records. A
     * structured error — never a fatal — classifies damage: Io for a
     * missing/unreadable file, Parse for a garbled header line or an
     * unsupported version. `axmemo merge` probes every shard segment
     * with this so one corrupt shard is reported and skipped (its jobs
     * re-simulate) instead of aborting the whole reduction.
     */
    static Expected<HeaderInfo> probe(const std::string &path);

    /**
     * Load every decodable record of @p path into a key->outcome map.
     * A missing file is an empty map; torn or garbled lines (including
     * the version header) are skipped. @p skipped, when non-null,
     * receives the number of non-header lines that failed to decode.
     */
    static std::unordered_map<std::string, SweepOutcome>
    load(const std::string &path, std::size_t *skipped = nullptr);

    /**
     * Open @p path for appending. @p fresh truncates and writes a new
     * version header (start of a run); otherwise records append after
     * the existing ones (resume).
     */
    Expected<void> open(const std::string &path, bool fresh);

    /** Append one record and flush it to the OS immediately. */
    void append(const std::string &key, const SweepOutcome &outcome);

    /** Flush and close (idempotent). */
    void close();

    bool isOpen() const { return file_ != nullptr; }
    const std::string &path() const { return path_; }

  private:
    std::FILE *file_ = nullptr;
    std::string path_;
};

} // namespace axmemo

#endif // AXMEMO_CORE_RUN_JOURNAL_HH
