#include "db/packed.hpp"

#include <algorithm>
#include <cstring>
#include <limits>
#include <new>
#include <span>
#include <vector>

#include "util/error.hpp"

namespace swh::db {

namespace {

constexpr std::size_t kArenaAlign = 64;

/// The unpacked scan positions of a layout build: per-position flags
/// for the heads' sequential walk, plus a Fenwick tree of them, so
/// "first remaining position at or after p" is one O(log n) descent.
/// Taking a position out is reversible (a cohort that misses the fill
/// bar is rolled back).
class RemainingSet {
public:
    explicit RemainingSet(std::size_t n)
        : n_(n), in_(n, 1), tree_(n + 1, 1) {
        tree_[0] = 0;
        for (std::size_t i = 1; i <= n; ++i) {
            const std::size_t parent = i + (i & (~i + 1));
            if (parent <= n) tree_[parent] += tree_[i];
        }
        top_ = 1;
        while (top_ * 2 <= n_) top_ *= 2;
    }

    bool has(std::size_t p) const { return in_[p] != 0; }
    void take(std::size_t p) {
        in_[p] = 0;
        add(p, ~std::uint32_t{0});  // -1, modulo 2^32
    }
    void put_back(std::size_t p) {
        in_[p] = 1;
        add(p, 1);
    }

    /// First remaining position >= p, or n when none is left.
    std::size_t first_from(std::size_t p) const {
        std::uint32_t before = 0;  // remaining positions in [0, p)
        for (std::size_t i = p; i > 0; i &= i - 1) before += tree_[i];
        std::size_t pos = 0;  // descend to the (before + 1)-th remaining
        for (std::size_t step = n_ == 0 ? 0 : top_; step > 0; step /= 2) {
            if (pos + step <= n_ && tree_[pos + step] <= before) {
                pos += step;
                before -= tree_[pos];
            }
        }
        return pos;
    }

private:
    void add(std::size_t p, std::uint32_t delta) {
        for (std::size_t i = p + 1; i <= n_; i += i & (~i + 1)) {
            tree_[i] += delta;
        }
    }

    std::size_t n_;
    std::size_t top_ = 0;
    std::vector<std::uint8_t> in_;
    std::vector<std::uint32_t> tree_;
};

/// Packing pass of PackedDatabase::interleaved over the longest-first
/// scan order (see InterleavedChunks): appends the cohorts — all but
/// their arena offsets — and their member and start tables. Heads take
/// consecutive remaining positions; each follower is the first
/// remaining position no longer than its lane's room — a binary search
/// over the scan-ordered lengths plus one RemainingSet lookup, so the
/// pass is O(n log n). Its own function so that its working set is
/// freed before the arena is allocated.
void pack_lanes(std::span<const std::uint32_t> lengths,
                std::span<const std::uint32_t> order,
                std::uint64_t total_residues, std::size_t w,
                std::vector<align::CohortDesc>& cohorts,
                std::vector<align::CohortMember>& members,
                std::vector<align::SubjectStart>& starts) {
    const std::size_t n = order.size();
    // Lengths in scan order (non-increasing): the follower search
    // bisects this contiguous copy instead of chasing the order.
    std::vector<std::uint32_t> len(n);
    for (std::size_t p = 0; p < n; ++p) len[p] = lengths[order[p]];
    const auto fills = [w](std::uint64_t residues, std::uint64_t columns) {
        return residues * 100 >=
               columns * w * InterleavedChunks::kCohortFillPct;
    };

    RemainingSet remaining(n);
    std::uint64_t unpacked = total_residues;
    std::size_t left = n;  // subjects not yet packed
    members.reserve(n);
    std::vector<align::CohortMember> followers;
    std::uint32_t used[64] = {};
    for (std::size_t head = 0; head < n; ++head) {
        if (!remaining.has(head)) continue;
        const std::uint32_t columns = len[head];
        align::CohortDesc d;
        d.columns = columns;
        d.first_member = static_cast<std::uint32_t>(members.size());
        d.first_start = static_cast<std::uint32_t>(starts.size());
        followers.clear();
        std::uint64_t residues = 0;
        std::uint32_t heads = 0;
        // The last W subjects form one cohort, one subject per lane:
        // nothing is left to stream into it, so no guard applies.
        const bool tail = left <= w;
        if (tail || fills(unpacked, columns)) {
            for (std::size_t p = head; p < n && heads < w; ++p) {
                if (!remaining.has(p)) continue;
                members.push_back({static_cast<std::uint32_t>(p), heads, 0});
                used[heads++] = len[p];
                residues += len[p];
                remaining.take(p);
            }
            // Rooms grow with the lane (heads are length-descending), so
            // the first lane whose room takes nothing ends the search. A
            // follower never starts a lane (column 0 is the head's) and
            // is never empty (two subjects cannot start one lane at one
            // column); an empty head means only empty subjects remain.
            for (std::uint32_t l = heads; l-- > 0 && used[l] > 0;) {
                const std::size_t taken = followers.size();
                while (used[l] < columns) {
                    const std::uint32_t room = columns - used[l];
                    const std::size_t p = remaining.first_from(
                        static_cast<std::size_t>(
                            std::partition_point(len.begin(), len.end(),
                                                 [room](std::uint32_t x) {
                                                     return x > room;
                                                 }) -
                            len.begin()));
                    if (p == n || len[p] == 0) break;
                    followers.push_back(
                        {static_cast<std::uint32_t>(p), l, used[l]});
                    used[l] += len[p];
                    residues += len[p];
                    remaining.take(p);
                }
                if (followers.size() == taken) break;
            }
            if (!tail && !fills(residues, columns)) {
                // Below the bar: roll the cohort back.
                for (const align::CohortMember& f : followers) {
                    remaining.put_back(f.slot);
                }
                for (std::uint32_t l = 0; l < heads; ++l) {
                    remaining.put_back(members.back().slot);
                    members.pop_back();
                }
                followers.clear();
                heads = 0;
            }
        }
        if (heads == 0) {
            // Outlier guard: the longest remaining subject rides alone.
            members.push_back({static_cast<std::uint32_t>(head), 0, 0});
            residues = columns;
            heads = 1;
            remaining.take(head);
        }
        // Followers in (column, lane) order, the order the kernel
        // retires subjects in; one start entry per distinct column.
        std::sort(followers.begin(), followers.end(),
                  [](const align::CohortMember& a,
                     const align::CohortMember& b) {
                      return a.column != b.column ? a.column < b.column
                                                  : a.lane < b.lane;
                  });
        for (const align::CohortMember& f : followers) {
            members.push_back(f);
            if (starts.size() == d.first_start ||
                starts.back().column != f.column) {
                starts.push_back({f.column, 0});
            }
            starts.back().lanes |= std::uint64_t{1} << f.lane;
        }
        d.residues = residues;
        d.lanes_used = heads;
        d.subjects = heads + static_cast<std::uint32_t>(followers.size());
        d.starts = static_cast<std::uint32_t>(starts.size() - d.first_start);
        unpacked -= residues;
        left -= d.subjects;
        cohorts.push_back(d);
    }
}

}  // namespace

void PackedDatabase::ArenaFree::operator()(align::Code* p) const {
    ::operator delete[](p, std::align_val_t{kArenaAlign});
}

void InterleavedChunks::ArenaFree::operator()(align::Code* p) const {
    ::operator delete[](p, std::align_val_t{kArenaAlign});
}

align::InterleavedCohorts InterleavedChunks::view() const {
    align::InterleavedCohorts v;
    v.arena = arena_.get();
    v.cohorts = cohorts_.data();
    v.members = members_.empty() ? nullptr : members_.data();
    v.starts = starts_.empty() ? nullptr : starts_.data();
    v.count = cohorts_.size();
    v.lanes = lanes_;
    v.pad_code = align::InterseqProfile::kPadCode;
    return v;
}

PackedDatabase PackedDatabase::pack(
    const std::vector<align::Sequence>& sequences) {
    SWH_REQUIRE(sequences.size() <= std::numeric_limits<std::uint32_t>::max(),
                "database too large for 32-bit subject indices");
    PackedDatabase p;
    const std::size_t n = sequences.size();
    p.offsets_.reserve(n);
    p.lengths_.reserve(n);

    std::uint64_t total = 0;
    for (const align::Sequence& s : sequences) {
        SWH_REQUIRE(s.size() <= std::numeric_limits<std::uint32_t>::max(),
                    "sequence too long for the packed layout");
        total += s.size();
    }
    if (total > 0) {
        p.arena_.reset(static_cast<align::Code*>(
            ::operator new[](total, std::align_val_t{kArenaAlign})));
    }

    for (const align::Sequence& s : sequences) {
        p.lengths_.push_back(static_cast<std::uint32_t>(s.size()));
        p.max_length_ = std::max(p.max_length_, s.size());
    }

    p.order_.resize(n);
    for (std::size_t i = 0; i < n; ++i) {
        p.order_[i] = static_cast<std::uint32_t>(i);
    }
    // Longest-first with a stable index tie-break: deterministic, keeps
    // similar lengths adjacent, and front-loads the long tail so chunked
    // claiming balances well.
    std::sort(p.order_.begin(), p.order_.end(),
              [&p](std::uint32_t a, std::uint32_t b) {
                  if (p.lengths_[a] != p.lengths_[b]) {
                      return p.lengths_[a] > p.lengths_[b];
                  }
                  return a < b;
              });

    // Lay the arena out in scan order: pass 1 walks order_[0..n) and so
    // streams the arena front to back with no strided jumps. offsets_
    // stays indexed by the original database index.
    p.offsets_.assign(n, 0);
    std::uint64_t at = 0;
    align::Code max_code = 0;
    for (const std::uint32_t idx : p.order_) {
        const align::Sequence& s = sequences[idx];
        p.offsets_[idx] = at;
        if (!s.residues.empty()) {
            std::memcpy(p.arena_.get() + at, s.residues.data(), s.size());
            for (const align::Code c : s.residues) {
                max_code = std::max(max_code, c);
            }
            at += s.size();
        }
    }
    p.residues_ = total;
    p.max_code_ = max_code;
    return p;
}

const InterleavedChunks& PackedDatabase::interleaved(int lanes) const {
    SWH_REQUIRE(lanes >= 1 && lanes <= 64,
                "cohort width must be a SIMD u8 lane count (1..64)");
    SWH_REQUIRE(size() == 0 || max_code_ < align::InterseqProfile::kPadCode,
                "residue codes collide with the interleave padding sentinel");
    const swh::LockGuard lock(itl_->mutex);
    for (const auto& c : itl_->built) {
        if (c->lanes() == lanes) return *c;
    }

    auto chunks = std::make_unique<InterleavedChunks>();
    chunks->lanes_ = lanes;
    const std::size_t w = static_cast<std::size_t>(lanes);
    pack_lanes(lengths_, order_, residues_, w, chunks->cohorts_,
               chunks->members_, chunks->starts_);

    // Cohorts come out longest-first (each opens at the longest
    // remaining subject), which keeps the claim-balancing property of
    // the scan order: workers pick up the expensive cohorts first.
    std::uint64_t total = 0;
    for (align::CohortDesc& d : chunks->cohorts_) {
        d.offset = total;
        total += std::uint64_t{d.columns} * w;
    }
    if (total > 0) {
        chunks->arena_.reset(static_cast<align::Code*>(
            ::operator new[](total, std::align_val_t{kArenaAlign})));
        // Fill pass: column-major — column j holds column j of every
        // lane — padding lane tails and absent lanes with the sentinel
        // the inter-sequence profile maps to the worst score. Cohort by
        // cohort, so each block is still cache-resident when its
        // members are scattered into it.
        for (const align::CohortDesc& d : chunks->cohorts_) {
            align::Code* base = chunks->arena_.get() + d.offset;
            std::memset(base, align::InterseqProfile::kPadCode,
                        std::size_t{d.columns} * w);
            for (std::uint32_t k = 0; k < d.subjects; ++k) {
                const align::CohortMember& mb =
                    chunks->members_[d.first_member + k];
                const std::uint32_t idx = order_[mb.slot];
                const align::Code* src = arena_.get() + offsets_[idx];
                align::Code* dst =
                    base + std::size_t{mb.column} * w + mb.lane;
                for (std::uint32_t j = 0; j < lengths_[idx]; ++j) {
                    dst[std::size_t{j} * w] = src[j];
                }
            }
        }
    }

    itl_->built.push_back(std::move(chunks));
    return *itl_->built.back();
}

align::PackedSubjects PackedDatabase::view() const {
    align::PackedSubjects v;
    v.arena = arena_.get();
    v.offsets = offsets_.data();
    v.lengths = lengths_.data();
    v.order = order_.data();
    v.count = lengths_.size();
    v.max_length = max_length_;
    v.max_code = max_code_;
    return v;
}

}  // namespace swh::db
