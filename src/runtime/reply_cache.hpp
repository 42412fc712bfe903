// A live node's at-most-once window: the answers to the last few thousand
// sequence numbers it served, in a bounded FIFO that allocates nothing per
// entry once it is full.
#pragma once

#include <algorithm>
#include <cstddef>
#include <cstdint>
#include <vector>

#include "util/assert.hpp"

namespace omig::runtime {

/// Distinct seqs a node remembers per request kind. Retransmissions arrive
/// within a few retry rounds of the original, so a few thousand entries is
/// a comfortable at-most-once window without unbounded growth.
inline constexpr std::size_t kReplyCacheSize = 4096;

/// The answers to the last `window` distinct seqs stored, so that a
/// retransmission is answered without its request running twice. FIFO:
/// the first answer stored under a seq stays until `window` newer seqs
/// have pushed it out.
///
/// The answers sit in a ring of entries, recycled oldest first once the
/// window is full: copying an answer into a recycled entry reuses that
/// entry's storage. An open-addressing index (linear probing, at most half
/// full) maps a seq's low 32 bits to its ring position, so a miss — the
/// common case — never touches the ring. Both grow on demand up to the
/// window; nothing is reserved up front.
template <class V>
class ReplyCache {
public:
  explicit ReplyCache(std::size_t window = kReplyCacheSize)
      : window_{window} {
    OMIG_REQUIRE(window >= 1, "a reply cache remembers at least one seq");
  }

  /// The answer stored under `seq`, or nullptr.
  [[nodiscard]] const V* find(std::uint64_t seq) const {
    if (index_.empty()) return nullptr;
    const std::uint32_t tag = tag_of(seq);
    for (std::size_t i = home(tag);; i = next(i)) {
      const Slot& slot = index_[i];
      if (slot.pos == kEmpty) return nullptr;
      if (slot.tag == tag && ring_[slot.pos].seq == seq) {
        return &ring_[slot.pos].value;
      }
    }
  }

  /// Stores `value` under `seq`, unless `seq` is already stored; past the
  /// window, the oldest seq is forgotten.
  void insert(std::uint64_t seq, const V& value) {
    if (find(seq) != nullptr) return;
    if (ring_.size() < window_) {
      ring_.push_back(Entry{seq, value});
      if (2 * ring_.size() > index_.size()) {
        grow();  // re-indexes every entry, the new one too
      } else {
        place(ring_.size() - 1);
      }
      return;
    }
    Entry& oldest = ring_[oldest_];
    unplace(oldest_);
    oldest.seq = seq;
    oldest.value = value;
    place(oldest_);
    oldest_ = oldest_ + 1 == window_ ? 0 : oldest_ + 1;
  }

  /// Forgets every seq.
  void clear() {
    ring_.clear();
    index_.clear();
    oldest_ = 0;
  }

  [[nodiscard]] std::size_t size() const { return ring_.size(); }

private:
  struct Entry {
    std::uint64_t seq;
    V value;
  };
  /// An index slot: a seq's low 32 bits and its ring position. Seqs
  /// sharing a tag are told apart by the ring entry.
  struct Slot {
    std::uint32_t tag = 0;
    std::uint32_t pos = kEmpty;  ///< ring position, or kEmpty
  };
  static constexpr std::uint32_t kEmpty = UINT32_MAX;

  [[nodiscard]] static std::uint32_t tag_of(std::uint64_t seq) {
    return static_cast<std::uint32_t>(seq);
  }
  [[nodiscard]] std::size_t home(std::uint32_t tag) const {
    const std::uint64_t h = tag * 0x9E3779B97F4A7C15ull;  // Fibonacci hash
    return static_cast<std::size_t>(h ^ (h >> 32)) & (index_.size() - 1);
  }
  [[nodiscard]] std::size_t next(std::size_t i) const {
    return (i + 1) & (index_.size() - 1);
  }

  /// Indexes the ring entry at `pos`.
  void place(std::size_t pos) {
    const std::uint32_t tag = tag_of(ring_[pos].seq);
    std::size_t i = home(tag);
    while (index_[i].pos != kEmpty) i = next(i);
    index_[i] = Slot{tag, static_cast<std::uint32_t>(pos)};
  }

  /// Un-indexes the ring entry at `pos`, shifting the rest of its probe
  /// run back so that no lookup stops short at the hole.
  void unplace(std::size_t pos) {
    std::size_t hole = home(tag_of(ring_[pos].seq));
    while (index_[hole].pos != pos) {
      OMIG_ASSERT(index_[hole].pos != kEmpty);
      hole = next(hole);
    }
    const std::size_t mask = index_.size() - 1;
    for (std::size_t j = next(hole); index_[j].pos != kEmpty; j = next(j)) {
      // The slot at j may fill the hole if its home is not cyclically
      // after the hole.
      if (((j - home(index_[j].tag)) & mask) >= ((j - hole) & mask)) {
        index_[hole] = index_[j];
        hole = j;
      }
    }
    index_[hole] = Slot{};
  }

  /// Doubles the index (a power of two, at least 16) and re-indexes.
  void grow() {
    index_.assign(std::max<std::size_t>(16, 2 * index_.size()), Slot{});
    for (std::size_t pos = 0; pos < ring_.size(); ++pos) place(pos);
  }

  std::size_t window_;
  std::vector<Entry> ring_;
  std::size_t oldest_ = 0;  ///< next entry to recycle once the ring is full
  std::vector<Slot> index_;
};

}  // namespace omig::runtime
