// The at-most-once window: ReplyCache answers exactly as a map plus a
// FIFO of its keys does, forgets exactly the oldest seq past the window,
// and empties on clear().
#include "runtime/reply_cache.hpp"

#include <gtest/gtest.h>

#include <algorithm>
#include <deque>
#include <random>
#include <string>
#include <unordered_map>

namespace omig::runtime {
namespace {

/// The reference: a seq-keyed map plus a FIFO of its keys, trimmed to the
/// window on every insert of a new seq.
class FifoMap {
public:
  explicit FifoMap(std::size_t window) : window_{window} {}

  [[nodiscard]] const std::string* find(std::uint64_t seq) const {
    const auto it = map_.find(seq);
    return it == map_.end() ? nullptr : &it->second;
  }
  void insert(std::uint64_t seq, const std::string& value) {
    if (!map_.emplace(seq, value).second) return;
    order_.push_back(seq);
    if (order_.size() > window_) {
      map_.erase(order_.front());
      order_.pop_front();
    }
  }
  [[nodiscard]] std::size_t size() const { return map_.size(); }

private:
  std::size_t window_;
  std::unordered_map<std::uint64_t, std::string> map_;
  std::deque<std::uint64_t> order_;
};

TEST(ReplyCacheTest, HitsAndMissesMatchAFifoMapUnderRetransmissions) {
  for (const std::size_t window : {std::size_t{1}, std::size_t{7},
                                   std::size_t{64}, kReplyCacheSize}) {
    for (const std::uint64_t seed : {1u, 2u, 3u}) {
      SCOPED_TRACE("window " + std::to_string(window) + ", seed " +
                   std::to_string(seed));
      std::mt19937_64 rng{seed};
      ReplyCache<std::string> cache{window};
      FifoMap reference{window};
      std::uint64_t fresh = 1;
      for (int step = 0; step < 40'000; ++step) {
        // Mostly new seqs, as a node sees them; otherwise a retransmission
        // of a recent seq, one just past the window, or an arbitrary one.
        std::uint64_t seq = fresh;
        const std::uint64_t roll = rng() % 20;
        if (roll < 6 && fresh > 1) {
          seq = fresh - 1 - rng() % std::min<std::uint64_t>(fresh - 1,
                                                            2 * window + 2);
        } else if (roll == 6) {
          seq = rng();
        } else {
          ++fresh;
        }
        const std::string* got = cache.find(seq);
        const std::string* want = reference.find(seq);
        ASSERT_EQ(got != nullptr, want != nullptr) << "seq " << seq;
        if (got != nullptr) {
          ASSERT_EQ(*got, *want) << "seq " << seq;
        }
        // A node stores an answer only on a miss; storing again under a
        // remembered seq must keep the first answer.
        const std::string value = std::to_string(step);
        cache.insert(seq, value);
        reference.insert(seq, value);
        ASSERT_EQ(cache.size(), reference.size());
      }
    }
  }
}

TEST(ReplyCacheTest, ForgetsExactlyTheOldestSeqPastTheWindow) {
  ReplyCache<std::string> cache;
  for (std::uint64_t seq = 1; seq <= kReplyCacheSize + 1; ++seq) {
    cache.insert(seq, "answer " + std::to_string(seq));
  }
  EXPECT_EQ(cache.size(), kReplyCacheSize);
  EXPECT_EQ(cache.find(1), nullptr);  // 4,097 distinct seqs: 1 is gone
  ASSERT_NE(cache.find(2), nullptr);  // and 2 is the oldest remembered
  EXPECT_EQ(*cache.find(2), "answer 2");
  ASSERT_NE(cache.find(kReplyCacheSize + 1), nullptr);
  EXPECT_EQ(*cache.find(kReplyCacheSize + 1),
            "answer " + std::to_string(kReplyCacheSize + 1));
}

TEST(ReplyCacheTest, ClearForgetsEverySeq) {
  ReplyCache<std::string> cache;
  for (std::uint64_t seq = 1; seq <= 100; ++seq) cache.insert(seq, "a");
  cache.clear();
  EXPECT_EQ(cache.size(), 0u);
  for (std::uint64_t seq = 1; seq <= 100; ++seq) {
    EXPECT_EQ(cache.find(seq), nullptr);
  }
  cache.insert(7, "b");  // usable again
  ASSERT_NE(cache.find(7), nullptr);
  EXPECT_EQ(*cache.find(7), "b");
}

}  // namespace
}  // namespace omig::runtime
