#include "memo/backend.hh"

#include <algorithm>

#include "common/log.hh"

namespace axmemo {

/** Plain Levenshtein distance for the did-you-mean suggestions. The
 * candidate sets are a handful of short names, so the quadratic table
 * is nowhere near a hot path. */
std::size_t
editDistance(const std::string &a, const std::string &b)
{
    std::vector<std::size_t> prev(b.size() + 1);
    std::vector<std::size_t> cur(b.size() + 1);
    for (std::size_t j = 0; j <= b.size(); ++j)
        prev[j] = j;
    for (std::size_t i = 1; i <= a.size(); ++i) {
        cur[0] = i;
        for (std::size_t j = 1; j <= b.size(); ++j) {
            const std::size_t sub =
                prev[j - 1] + (a[i - 1] == b[j - 1] ? 0 : 1);
            cur[j] = std::min({prev[j] + 1, cur[j - 1] + 1, sub});
        }
        std::swap(prev, cur);
    }
    return prev[b.size()];
}

std::string
suggestClosest(const std::string &name,
               const std::vector<std::string> &candidates)
{
    // Suggest the closest candidate when it is plausibly a typo:
    // within 3 edits, and closer than "replace everything".
    const std::string *best = nullptr;
    std::size_t bestDist = 4;
    for (const std::string &candidate : candidates) {
        const std::size_t dist = editDistance(name, candidate);
        if (dist < bestDist && dist < candidate.size()) {
            bestDist = dist;
            best = &candidate;
        }
    }
    return best ? *best : std::string();
}

MemoBackendRegistry &
MemoBackendRegistry::instance()
{
    static MemoBackendRegistry registry;
    return registry;
}

void
MemoBackendRegistry::add(int order, std::unique_ptr<MemoBackend> backend)
{
    const std::string name = backend->name();
    for (const Entry &existing : entries_)
        if (existing.backend->name() == name)
            axm_panic("duplicate memo backend registration '", name,
                      "'");
    entries_.push_back({order, std::move(backend)});
}

const MemoBackend *
MemoBackendRegistry::find(const std::string &name) const
{
    for (const Entry &entry : entries_)
        if (entry.backend->name() == name)
            return entry.backend.get();
    return nullptr;
}

Expected<const MemoBackend *>
MemoBackendRegistry::resolve(const std::string &name) const
{
    if (const MemoBackend *backend = find(name))
        return backend;

    std::string message = "unknown memo backend '" + name + "'";
    const std::vector<const MemoBackend *> all = list();

    std::vector<std::string> names;
    names.reserve(all.size());
    for (const MemoBackend *backend : all)
        names.push_back(backend->name());
    const std::string best = suggestClosest(name, names);
    if (!best.empty())
        message += " (did you mean '" + best + "'?)";

    message += "; registered backends:";
    for (std::size_t i = 0; i < names.size(); ++i)
        message += (i ? ", " : " ") + names[i];
    return Error{ErrorCode::Config, "backend", message};
}

std::vector<const MemoBackend *>
MemoBackendRegistry::list() const
{
    std::vector<const Entry *> sorted;
    sorted.reserve(entries_.size());
    for (const Entry &entry : entries_)
        sorted.push_back(&entry);
    std::sort(sorted.begin(), sorted.end(),
              [](const Entry *a, const Entry *b) {
                  return a->order != b->order
                             ? a->order < b->order
                             : a->backend->name() < b->backend->name();
              });
    std::vector<const MemoBackend *> out;
    out.reserve(sorted.size());
    for (const Entry *entry : sorted)
        out.push_back(entry->backend.get());
    return out;
}

} // namespace axmemo
