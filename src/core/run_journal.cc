#include "core/run_journal.hh"

#include <charconv>
#include <cstdio>
#include <cstdlib>
#include <cstring>

#include "core/config_io.hh"
#include "core/json_value.hh"
#include "core/memo_backends.hh"
#include "core/output_paths.hh"
#include "obs/json_escape.hh"

namespace axmemo {

namespace {

// ---------------------------------------------------------------------
// Encoding. Compact JSON; numbers go through std::to_chars — doubles in
// shortest-round-trip form, which strtod parses back bit-exactly, with
// no locale or allocation — and repeated fixed-shape records as arrays
// to keep lines short. The encoder appends in place: it runs once per
// completed job (perfbench's core.journal_s).
// ---------------------------------------------------------------------

void
appendDouble(std::string &out, double value)
{
    char buf[40];
    const auto r = std::to_chars(buf, buf + sizeof(buf), value);
    out.append(buf, r.ptr);
}

template <typename Int>
void
appendInt(std::string &out, Int value)
{
    char buf[24];
    const auto r = std::to_chars(buf, buf + sizeof(buf), value);
    out.append(buf, r.ptr);
}

template <typename Buckets>
void
appendSparseBuckets(std::string &out, const Buckets &buckets,
                    std::size_t n)
{
    out += '[';
    bool first = true;
    for (std::size_t i = 0; i < n; ++i) {
        if (!buckets[i])
            continue;
        if (!first)
            out += ',';
        first = false;
        out += '[';
        appendInt(out, i);
        out += ',';
        appendInt(out, buckets[i]);
        out += ']';
    }
    out += ']';
}

void
appendHistogram(std::string &out, const Histogram &h)
{
    out += '[';
    appendInt(out, h.count());
    out += ',';
    appendInt(out, h.sum());
    out += ',';
    appendInt(out, h.sampleMin());
    out += ',';
    appendInt(out, h.sampleMax());
    out += ',';
    appendSparseBuckets(out, h.buckets(), Histogram::numBuckets);
    out += ']';
}

void
appendDistribution(std::string &out, const Distribution &d)
{
    out += '[';
    appendInt(out, d.lo());
    out += ',';
    appendInt(out, d.hi());
    out += ',';
    appendInt(out, d.bucketSize());
    out += ',';
    appendInt(out, d.buckets().size());
    out += ',';
    appendInt(out, d.count());
    out += ',';
    appendInt(out, d.sum());
    out += ',';
    appendDouble(out, d.sumSq());
    out += ',';
    appendInt(out, d.sampleMin());
    out += ',';
    appendInt(out, d.sampleMax());
    out += ',';
    appendInt(out, d.underflow());
    out += ',';
    appendInt(out, d.overflow());
    out += ',';
    appendSparseBuckets(out, d.buckets(), d.buckets().size());
    out += ']';
}

void
appendSimStats(std::string &out, const SimStats &s)
{
    out += "{\"cycles\":";
    appendInt(out, s.cycles);
    out += ",\"macro\":";
    appendInt(out, s.macroInsts);
    out += ",\"uops\":";
    appendInt(out, s.uops);
    out += ",\"memoUops\":";
    appendInt(out, s.memoUops);
    out += ",\"branches\":";
    appendInt(out, s.branches);
    out += ",\"mispredicts\":";
    appendInt(out, s.mispredicts);
    out += ",\"loads\":";
    appendInt(out, s.loads);
    out += ",\"stores\":";
    appendInt(out, s.stores);
    out += ",\"stalls\":";
    appendInt(out, s.memoQueueStalls);
    out += ",\"regionEntries\":";
    appendInt(out, s.regionEntries);
    out += ",\"memo\":[";
    appendInt(out, s.memo.lookups);
    out += ',';
    appendInt(out, s.memo.l1Hits);
    out += ',';
    appendInt(out, s.memo.l2Hits);
    out += ',';
    appendInt(out, s.memo.misses);
    out += ',';
    appendInt(out, s.memo.sampledHits);
    out += ',';
    appendInt(out, s.memo.profiledHits);
    out += ',';
    appendInt(out, s.memo.adaptiveRaises);
    out += ',';
    appendInt(out, s.memo.adaptiveLowers);
    out += ',';
    appendInt(out, s.memo.updates);
    out += ',';
    appendInt(out, s.memo.invalidates);
    out += ',';
    appendInt(out, s.memo.inputBytesHashed);
    out += s.memo.monitorTripped ? ",1]" : ",0]";
    out += ",\"hitStreak\":";
    appendHistogram(out, s.dists.memoHitStreak);
    out += ",\"lookupLatency\":";
    appendDistribution(out, s.dists.memoLookupLatency);
    out += ",\"regionInvocations\":";
    appendHistogram(out, s.dists.regionInvocations);
    out += ",\"l2SetOccupancy\":";
    appendDistribution(out, s.dists.l2SetOccupancy);
    out += ",\"events\":{";
    bool first = true;
    for (const auto &[name, value] : s.events.all()) {
        if (!first)
            out += ',';
        first = false;
        out += '"';
        out += jsonEscape(name);
        out += "\":";
        appendInt(out, value);
    }
    out += "}}";
}

/** @p r as a JSON object; the outputs only @p withOutputs (the
 * --isolate pipe), never in a journal record. */
void
appendRunResult(std::string &out, const RunResult &r, bool withOutputs)
{
    out += "{\"mode\":\"";
    out += jsonEscape(r.backend);
    out += "\",\"lookups\":";
    appendInt(out, r.lookups);
    out += ",\"hits\":";
    appendInt(out, r.hits);
    out += ",\"stats\":";
    appendSimStats(out, r.stats);
    out += ",\"energy\":[";
    appendDouble(out, r.energy.corePj);
    out += ',';
    appendDouble(out, r.energy.cachePj);
    out += ',';
    appendDouble(out, r.energy.dramPj);
    out += ',';
    appendDouble(out, r.energy.memoPj);
    out += ',';
    appendDouble(out, r.energy.leakagePj);
    out += "],\"digest\":";
    appendInt(out, r.outputsDigest);
    if (withOutputs) {
        out += ",\"outputs\":[";
        for (std::size_t i = 0; i < r.outputs.size(); ++i) {
            if (i)
                out += ',';
            appendDouble(out, r.outputs[i]);
        }
        out += ']';
    }
    out += ",\"regions\":[";
    for (std::size_t i = 0; i < r.regions.size(); ++i) {
        const RegionTransformInfo &g = r.regions[i];
        if (i)
            out += ',';
        out += '[';
        appendInt(out, g.regionId);
        out += ',';
        appendInt(out, static_cast<unsigned>(g.lut));
        out += ',';
        appendInt(out, g.numInputs);
        out += ',';
        appendInt(out, g.inputBytes);
        out += ',';
        appendInt(out, g.numOutputs);
        out += ',';
        appendInt(out, g.outputBytes);
        out += ',';
        appendInt(out, g.fusedLoads);
        out += ']';
    }
    out += "]}";
}

/** The scored half of a record. The subject is the record's own run,
 * so only the baseline is written. */
void
appendComparison(std::string &out, const Comparison &c)
{
    out += "{\"baseline\":";
    appendRunResult(out, c.baseline, /*withOutputs=*/false);
    out += ",\"speedup\":";
    appendDouble(out, c.speedup);
    out += ",\"energyReduction\":";
    appendDouble(out, c.energyReduction);
    out += ",\"qualityLoss\":";
    appendDouble(out, c.qualityLoss);
    out += ",\"cdf\":[";
    const std::vector<EmpiricalCdf::Run> runs = c.errorCdf.runs();
    for (std::size_t i = 0; i < runs.size(); ++i) {
        if (i)
            out += ',';
        out += '[';
        appendDouble(out, runs[i].value);
        out += ',';
        appendInt(out, runs[i].count);
        out += ']';
    }
    out += "],\"normalizedUops\":";
    appendDouble(out, c.normalizedUops);
    out += ",\"memoUopShare\":";
    appendDouble(out, c.memoUopShare);
    out += '}';
}

// ---------------------------------------------------------------------
// Decoding. Helpers raise AxException(Parse); decodeLine() catches at
// its boundary, so one malformed field skips the whole line.
// ---------------------------------------------------------------------

const JValue &
member(const JValue &v, const char *key)
{
    const JValue *m = v.find(key);
    if (!m)
        raiseError(ErrorCode::Parse, "journal",
                   std::string("missing field '") + key + "'");
    return *m;
}

std::uint64_t
asU64(const JValue &v, const char *key)
{
    Expected<std::uint64_t> r = jsonU64(v, key);
    if (!r.ok())
        throw AxException(r.error());
    return r.value();
}

double
asDouble(const JValue &v, const char *key)
{
    Expected<double> r = jsonNumber(v, key);
    if (!r.ok())
        throw AxException(r.error());
    return r.value();
}

std::int64_t
asI64(const JValue &v, const char *key)
{
    if (v.kind != JValue::Kind::Number ||
        v.token.find_first_of(".eE") != std::string::npos)
        raiseError(ErrorCode::Parse, "journal",
                   std::string("field '") + key +
                       "' must be an integer");
    return std::strtoll(v.token.c_str(), nullptr, 10);
}

const JValue &
element(const JValue &v, std::size_t i, const char *key)
{
    if (v.kind != JValue::Kind::Array || i >= v.elements.size())
        raiseError(ErrorCode::Parse, "journal",
                   std::string("array '") + key + "' too short");
    return v.elements[i];
}

std::vector<std::uint64_t>
decodeSparseBuckets(const JValue &v, std::size_t n, const char *key)
{
    std::vector<std::uint64_t> buckets(n, 0);
    if (v.kind != JValue::Kind::Array)
        raiseError(ErrorCode::Parse, "journal",
                   std::string("field '") + key + "' must be an array");
    for (const JValue &pair : v.elements) {
        const std::uint64_t index = asU64(element(pair, 0, key), key);
        const std::uint64_t count = asU64(element(pair, 1, key), key);
        if (index >= n)
            raiseError(ErrorCode::Parse, "journal",
                       std::string("bucket index out of range in '") +
                           key + "'");
        buckets[index] = count;
    }
    return buckets;
}

void
decodeHistogram(const JValue &v, Histogram &h, const char *key)
{
    h.restore(asU64(element(v, 0, key), key),
              asU64(element(v, 1, key), key),
              asU64(element(v, 2, key), key),
              asU64(element(v, 3, key), key),
              decodeSparseBuckets(element(v, 4, key),
                                  Histogram::numBuckets, key));
}

void
decodeDistribution(const JValue &v, Distribution &d, const char *key)
{
    const std::uint64_t numBuckets = asU64(element(v, 3, key), key);
    if (numBuckets > (1u << 24))
        raiseError(ErrorCode::Parse, "journal",
                   std::string("implausible bucket count in '") + key +
                       "'");
    d.restore(asU64(element(v, 0, key), key),
              asU64(element(v, 1, key), key),
              asU64(element(v, 2, key), key),
              asU64(element(v, 4, key), key),
              asU64(element(v, 5, key), key),
              asDouble(element(v, 6, key), key),
              asU64(element(v, 7, key), key),
              asU64(element(v, 8, key), key),
              asU64(element(v, 9, key), key),
              asU64(element(v, 10, key), key),
              decodeSparseBuckets(element(v, 11, key),
                                  static_cast<std::size_t>(numBuckets),
                                  key));
}

void
decodeSimStats(const JValue &v, SimStats &s)
{
    s.cycles = asU64(member(v, "cycles"), "cycles");
    s.macroInsts = asU64(member(v, "macro"), "macro");
    s.uops = asU64(member(v, "uops"), "uops");
    s.memoUops = asU64(member(v, "memoUops"), "memoUops");
    s.branches = asU64(member(v, "branches"), "branches");
    s.mispredicts = asU64(member(v, "mispredicts"), "mispredicts");
    s.loads = asU64(member(v, "loads"), "loads");
    s.stores = asU64(member(v, "stores"), "stores");
    s.memoQueueStalls = asU64(member(v, "stalls"), "stalls");
    s.regionEntries =
        asU64(member(v, "regionEntries"), "regionEntries");

    const JValue &m = member(v, "memo");
    s.memo.lookups = asU64(element(m, 0, "memo"), "memo");
    s.memo.l1Hits = asU64(element(m, 1, "memo"), "memo");
    s.memo.l2Hits = asU64(element(m, 2, "memo"), "memo");
    s.memo.misses = asU64(element(m, 3, "memo"), "memo");
    s.memo.sampledHits = asU64(element(m, 4, "memo"), "memo");
    s.memo.profiledHits = asU64(element(m, 5, "memo"), "memo");
    s.memo.adaptiveRaises = asU64(element(m, 6, "memo"), "memo");
    s.memo.adaptiveLowers = asU64(element(m, 7, "memo"), "memo");
    s.memo.updates = asU64(element(m, 8, "memo"), "memo");
    s.memo.invalidates = asU64(element(m, 9, "memo"), "memo");
    s.memo.inputBytesHashed = asU64(element(m, 10, "memo"), "memo");
    s.memo.monitorTripped = asU64(element(m, 11, "memo"), "memo") != 0;

    decodeHistogram(member(v, "hitStreak"), s.dists.memoHitStreak,
                    "hitStreak");
    decodeDistribution(member(v, "lookupLatency"),
                       s.dists.memoLookupLatency, "lookupLatency");
    decodeHistogram(member(v, "regionInvocations"),
                    s.dists.regionInvocations, "regionInvocations");
    decodeDistribution(member(v, "l2SetOccupancy"),
                       s.dists.l2SetOccupancy, "l2SetOccupancy");

    s.events = CounterSet{};
    const JValue &events = member(v, "events");
    if (events.kind != JValue::Kind::Object)
        raiseError(ErrorCode::Parse, "journal",
                   "field 'events' must be an object");
    for (const auto &[name, value] : events.members)
        s.events.add(name, asU64(value, "events"));
}

void
decodeRunResult(const JValue &v, RunResult &r, bool withOutputs)
{
    // The mode field holds the backend's registered name.
    Expected<std::string> backend =
        jsonString(member(v, "mode"), "mode");
    if (!backend.ok())
        throw AxException(backend.error());
    if (!memoBackends().find(backend.value()))
        raiseError(ErrorCode::Parse, "journal",
                   "unknown backend '" + backend.value() + "'");
    r.backend = std::move(backend).value();
    r.lookups = asU64(member(v, "lookups"), "lookups");
    r.hits = asU64(member(v, "hits"), "hits");
    decodeSimStats(member(v, "stats"), r.stats);

    const JValue &e = member(v, "energy");
    r.energy.corePj = asDouble(element(e, 0, "energy"), "energy");
    r.energy.cachePj = asDouble(element(e, 1, "energy"), "energy");
    r.energy.dramPj = asDouble(element(e, 2, "energy"), "energy");
    r.energy.memoPj = asDouble(element(e, 3, "energy"), "energy");
    r.energy.leakagePj = asDouble(element(e, 4, "energy"), "energy");
    r.outputsDigest = asU64(member(v, "digest"), "digest");

    r.outputs.clear();
    if (withOutputs) {
        const JValue &outputs = member(v, "outputs");
        if (outputs.kind != JValue::Kind::Array)
            raiseError(ErrorCode::Parse, "journal",
                       "field 'outputs' must be an array");
        r.outputs.reserve(outputs.elements.size());
        for (const JValue &o : outputs.elements)
            r.outputs.push_back(asDouble(o, "outputs"));
        if (digestOutputs(r.outputs) != r.outputsDigest)
            raiseError(ErrorCode::Parse, "journal",
                       "outputs do not match their digest");
    }

    const JValue &regions = member(v, "regions");
    if (regions.kind != JValue::Kind::Array)
        raiseError(ErrorCode::Parse, "journal",
                   "field 'regions' must be an array");
    r.regions.clear();
    r.regions.reserve(regions.elements.size());
    for (const JValue &g : regions.elements) {
        RegionTransformInfo info;
        info.regionId = static_cast<int>(
            asI64(element(g, 0, "regions"), "regions"));
        info.lut = static_cast<LutId>(
            asU64(element(g, 1, "regions"), "regions"));
        info.numInputs = static_cast<unsigned>(
            asU64(element(g, 2, "regions"), "regions"));
        info.inputBytes = static_cast<unsigned>(
            asU64(element(g, 3, "regions"), "regions"));
        info.numOutputs = static_cast<unsigned>(
            asU64(element(g, 4, "regions"), "regions"));
        info.outputBytes = static_cast<unsigned>(
            asU64(element(g, 5, "regions"), "regions"));
        info.fusedLoads = static_cast<unsigned>(
            asU64(element(g, 6, "regions"), "regions"));
        r.regions.push_back(info);
    }
}

/** Decode the scored half of a record; @p subject is the record's run. */
void
decodeComparison(const JValue &v, const RunResult &subject, Comparison &c)
{
    decodeRunResult(member(v, "baseline"), c.baseline,
                    /*withOutputs=*/false);
    c.subject = subject;
    c.speedup = asDouble(member(v, "speedup"), "speedup");
    c.energyReduction =
        asDouble(member(v, "energyReduction"), "energyReduction");
    c.qualityLoss = asDouble(member(v, "qualityLoss"), "qualityLoss");
    const JValue &cdf = member(v, "cdf");
    if (cdf.kind != JValue::Kind::Array)
        raiseError(ErrorCode::Parse, "journal",
                   "field 'cdf' must be an array");
    std::vector<EmpiricalCdf::Run> runs;
    runs.reserve(cdf.elements.size());
    for (const JValue &run : cdf.elements)
        runs.push_back({asDouble(element(run, 0, "cdf"), "cdf"),
                        asU64(element(run, 1, "cdf"), "cdf")});
    Expected<EmpiricalCdf> errorCdf = EmpiricalCdf::fromRuns(runs);
    if (!errorCdf.ok())
        throw AxException(errorCdf.error());
    c.errorCdf = std::move(errorCdf).value();
    c.normalizedUops =
        asDouble(member(v, "normalizedUops"), "normalizedUops");
    c.memoUopShare =
        asDouble(member(v, "memoUopShare"), "memoUopShare");
}

} // namespace

SweepJournal::~SweepJournal()
{
    close();
}

std::string
SweepJournal::pathFor(const std::string &label,
                      const std::string &outDir)
{
    return joinPath(resolveOutputDir(outDir), label + "_sweep.ckpt");
}

std::string
SweepJournal::jobKey(const SweepJob &job)
{
    std::string key = job.workload;
    key += '|';
    key += job.backend;
    key += job.scored ? "|1|" : "|0|";
    key += toJson(job.config);
    return key;
}

std::string
SweepJournal::encodeLine(const std::string &key,
                         const SweepOutcome &outcome)
{
    std::string out;
    out.reserve(16 * 1024); // typical line size; avoids regrowth churn
    out += "{\"key\":\"";
    out += jsonEscape(key);
    out += "\",\"seconds\":";
    appendDouble(out, outcome.seconds);
    out += outcome.scored ? ",\"scored\":true" : ",\"scored\":false";
    out += ",\"run\":";
    appendRunResult(out, outcome.run, /*withOutputs=*/false);
    if (outcome.scored) {
        out += ",\"cmp\":";
        appendComparison(out, outcome.cmp);
    }
    out += '}';
    return out;
}

Expected<std::pair<std::string, SweepOutcome>>
SweepJournal::decodeLine(const std::string &line)
{
    Expected<JValue> parsed = parseJsonValue(line);
    if (!parsed.ok())
        return parsed.error();
    const JValue &root = parsed.value();
    try {
        std::pair<std::string, SweepOutcome> record;
        Expected<std::string> key =
            jsonString(member(root, "key"), "key");
        if (!key.ok())
            return key.error();
        record.first = key.value();
        SweepOutcome &outcome = record.second;
        outcome.seconds = asDouble(member(root, "seconds"), "seconds");
        Expected<bool> scored =
            jsonBool(member(root, "scored"), "scored");
        if (!scored.ok())
            return scored.error();
        outcome.scored = scored.value();
        decodeRunResult(member(root, "run"), outcome.run,
                        /*withOutputs=*/false);
        if (outcome.scored)
            decodeComparison(member(root, "cmp"), outcome.run,
                             outcome.cmp);
        outcome.restored = true;
        return record;
    } catch (const AxException &e) {
        return e.error();
    }
}

std::string
SweepJournal::encodeRunLine(const RunResult &run)
{
    std::string out;
    appendRunResult(out, run, /*withOutputs=*/true);
    return out;
}

Expected<RunResult>
SweepJournal::decodeRunLine(const std::string &line)
{
    Expected<JValue> parsed = parseJsonValue(line);
    if (!parsed.ok())
        return parsed.error();
    try {
        RunResult run;
        decodeRunResult(parsed.value(), run, /*withOutputs=*/true);
        return run;
    } catch (const AxException &e) {
        return e.error();
    }
}

Expected<SweepJournal::HeaderInfo>
SweepJournal::probe(const std::string &path)
{
    std::FILE *file = std::fopen(path.c_str(), "rb");
    if (!file)
        return Error{ErrorCode::Io, "journal",
                     "cannot open '" + path + "' for reading"};
    std::string line;
    int c = 0;
    while ((c = std::fgetc(file)) != EOF && c != '\n' &&
           line.size() < 256)
        line += static_cast<char>(c);
    std::fclose(file);
    const Expected<JValue> parsed = parseJsonValue(line);
    if (!parsed.ok() || parsed.value().kind != JValue::Kind::Object)
        return Error{ErrorCode::Parse, "journal",
                     "'" + path + "' has a garbled header line"};
    const JValue *field = parsed.value().find("axmemo_sweep_journal");
    if (!field)
        return Error{ErrorCode::Parse, "journal",
                     "'" + path + "' is not a sweep journal"};
    const Expected<std::uint64_t> v =
        jsonU64(*field, "axmemo_sweep_journal");
    if (!v.ok() || v.value() != static_cast<std::uint64_t>(version))
        return Error{ErrorCode::Parse, "journal",
                     "'" + path + "' has unsupported journal version"};
    HeaderInfo info;
    info.version = static_cast<int>(v.value());
    return info;
}

std::unordered_map<std::string, SweepOutcome>
SweepJournal::load(const std::string &path, std::size_t *skipped)
{
    std::unordered_map<std::string, SweepOutcome> records;
    if (skipped)
        *skipped = 0;
    std::FILE *file = std::fopen(path.c_str(), "rb");
    if (!file)
        return records;
    std::string line;
    char buf[1 << 16];
    const auto consume = [&]() {
        if (line.empty())
            return;
        // The version header ({"axmemo_sweep_journal":...}) has no
        // "key" member and fails decode like any garbled line; it is
        // not counted as skipped.
        Expected<std::pair<std::string, SweepOutcome>> record =
            decodeLine(line);
        if (record.ok()) {
            records[record.value().first] =
                std::move(record.value().second);
        } else if (skipped &&
                   line.find("\"axmemo_sweep_journal\"") ==
                       std::string::npos) {
            ++*skipped;
        }
        line.clear();
    };
    std::size_t got = 0;
    while ((got = std::fread(buf, 1, sizeof(buf), file)) > 0) {
        for (std::size_t i = 0; i < got; ++i) {
            if (buf[i] == '\n')
                consume();
            else
                line += buf[i];
        }
    }
    // No trailing newline = the final line was torn mid-write; still
    // try it (it may just lack the newline) and drop it if garbled.
    consume();
    std::fclose(file);
    return records;
}

Expected<void>
SweepJournal::open(const std::string &path, bool fresh)
{
    close();
    std::FILE *file = std::fopen(path.c_str(), fresh ? "wb" : "ab");
    if (!file)
        return Error{ErrorCode::Io, "journal",
                     "cannot open '" + path + "' for writing"};
    file_ = file;
    path_ = path;
    // An append-mode open of a missing file creates it; it still needs
    // the version header (first use of a worker's shard segment opens
    // with resume semantics), else probe() would flag it as damaged.
    // Append streams report position 0 until the first write, so seek.
    if (!fresh)
        std::fseek(file_, 0, SEEK_END);
    if (fresh || std::ftell(file_) == 0) {
        std::fprintf(file_, "{\"axmemo_sweep_journal\":%d}\n", version);
        std::fflush(file_);
    }
    return {};
}

void
SweepJournal::append(const std::string &key,
                     const SweepOutcome &outcome)
{
    if (!file_)
        return;
    const std::string line = encodeLine(key, outcome);
    std::fwrite(line.data(), 1, line.size(), file_);
    std::fputc('\n', file_);
    // Per-record flush: after this returns, losing the process costs
    // only in-flight jobs, not completed ones.
    std::fflush(file_);
}

void
SweepJournal::close()
{
    if (file_) {
        std::fflush(file_);
        std::fclose(file_);
        file_ = nullptr;
    }
}

} // namespace axmemo
