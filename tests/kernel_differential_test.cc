// Differential tests for the counting kernels (DESIGN.md §9): every
// compiled-in-and-runnable SIMD variant must return exactly the integers a
// plain reference loop returns, on adversarial word shapes — tail words
// past the last full vector lane, all-zero blocks (the early-exit path),
// single-bit and all-ones words, and empty intersections. The
// prefix-blocked executor is checked the same way, against naive
// VerticalIndex::CountAllPresent, for every kernel and for arbitrary group
// partitions.

#include "itemset/kernels.h"

#include <cstdint>
#include <random>
#include <vector>

#include "gtest/gtest.h"
#include "itemset/bitmap.h"
#include "itemset/itemset.h"
#include "itemset/transaction_database.h"

namespace corrmine {
namespace {

// Hand-written reference loops, deliberately independent of the kernel
// layer (including its scalar TU) so a bug shared by all kernels is still
// caught.
uint64_t RefPopcount(const std::vector<uint64_t>& words) {
  uint64_t total = 0;
  for (uint64_t w : words) {
    while (w != 0) {
      total += w & 1;
      w >>= 1;
    }
  }
  return total;
}

uint64_t RefAndCount(const std::vector<uint64_t>& a,
                     const std::vector<uint64_t>& b) {
  std::vector<uint64_t> anded(a.size());
  for (size_t i = 0; i < a.size(); ++i) anded[i] = a[i] & b[i];
  return RefPopcount(anded);
}

std::vector<uint64_t> RefAndAll(
    const std::vector<const std::vector<uint64_t>*>& ops, size_t n) {
  std::vector<uint64_t> acc(n, ~uint64_t{0});
  if (ops.empty()) return acc;
  for (size_t i = 0; i < n; ++i) {
    uint64_t w = (*ops[0])[i];
    for (size_t k = 1; k < ops.size(); ++k) w &= (*ops[k])[i];
    acc[i] = w;
  }
  return acc;
}

// The adversarial word-count menu: empty, sub-word, one word, every
// remainder class around the 4-word (AVX2) and 8-word (AVX-512) lane
// widths, and two larger buffers with ragged tails.
const size_t kShapes[] = {0, 1, 2, 3, 4, 5, 7, 8, 9, 15, 16, 17, 63, 64, 65};

std::vector<uint64_t> RandomWords(size_t n, std::mt19937_64* rng,
                                  double density) {
  std::bernoulli_distribution bit(density);
  std::vector<uint64_t> words(n, 0);
  for (size_t i = 0; i < n; ++i) {
    for (int b = 0; b < 64; ++b) {
      if (bit(*rng)) words[i] |= uint64_t{1} << b;
    }
  }
  return words;
}

// Operand patterns that stress distinct kernel paths.
std::vector<std::vector<uint64_t>> PatternOperands(size_t n,
                                                   std::mt19937_64* rng) {
  std::vector<std::vector<uint64_t>> ops;
  ops.push_back(RandomWords(n, rng, 0.5));           // dense random
  ops.push_back(RandomWords(n, rng, 0.02));          // sparse random
  ops.push_back(std::vector<uint64_t>(n, 0));        // all zero
  ops.push_back(std::vector<uint64_t>(n, ~uint64_t{0}));  // all ones
  std::vector<uint64_t> single(n, 0);
  if (n > 0) single[n - 1] = uint64_t{1} << 63;      // one bit, last word
  ops.push_back(single);
  // Disjoint pair: even bits vs odd bits — empty intersection.
  ops.push_back(std::vector<uint64_t>(n, 0x5555555555555555ULL));
  ops.push_back(std::vector<uint64_t>(n, 0xAAAAAAAAAAAAAAAAULL));
  return ops;
}

class KernelGuard {
 public:
  ~KernelGuard() { EXPECT_TRUE(SetActiveKernel("auto").ok()); }
};

TEST(CountingKernelsTest, ScalarAlwaysAvailable) {
  std::vector<const CountingKernels*> kernels = AvailableKernels();
  ASSERT_FALSE(kernels.empty());
  EXPECT_EQ(kernels.front()->isa, KernelIsa::kScalar);
  EXPECT_STREQ(kernels.front()->name, "scalar");
}

TEST(CountingKernelsTest, AllKernelsMatchReferenceOnAdversarialShapes) {
  std::mt19937_64 rng(20260805);
  for (const CountingKernels* kernels : AvailableKernels()) {
    SCOPED_TRACE(kernels->name);
    for (size_t n : kShapes) {
      SCOPED_TRACE("words=" + std::to_string(n));
      std::vector<std::vector<uint64_t>> ops = PatternOperands(n, &rng);
      for (size_t i = 0; i < ops.size(); ++i) {
        EXPECT_EQ(kernels->popcount(ops[i].data(), n), RefPopcount(ops[i]));
        for (size_t j = 0; j < ops.size(); ++j) {
          const uint64_t want = RefAndCount(ops[i], ops[j]);
          EXPECT_EQ(kernels->and_count(ops[i].data(), ops[j].data(), n),
                    want);
          // Fused and_count_into: result words and count in one pass.
          std::vector<uint64_t> dst(n, 0xDEADBEEFDEADBEEFULL);
          EXPECT_EQ(kernels->and_count_into(dst.data(), ops[i].data(),
                                            ops[j].data(), n),
                    want);
          std::vector<uint64_t> ref =
              RefAndAll({&ops[i], &ops[j]}, n);
          EXPECT_EQ(dst, ref);
          // and_inplace agrees with the materialized intersection.
          std::vector<uint64_t> inplace = ops[i];
          kernels->and_inplace(inplace.data(), ops[j].data(), n);
          EXPECT_EQ(inplace, ref);
        }
      }
    }
  }
}

TEST(CountingKernelsTest, MultiAndAndBlockMatchReference) {
  std::mt19937_64 rng(97);
  for (const CountingKernels* kernels : AvailableKernels()) {
    SCOPED_TRACE(kernels->name);
    for (size_t n : kShapes) {
      SCOPED_TRACE("words=" + std::to_string(n));
      std::vector<std::vector<uint64_t>> ops = PatternOperands(n, &rng);
      // k from 1 (multi_and) / 2 (and_block) up past the pattern count so
      // repeats appear; operand choice cycles through all patterns,
      // including the disjoint pair that makes the AND collapse to zero.
      for (size_t k = 1; k <= ops.size() + 2; ++k) {
        std::vector<const uint64_t*> ptrs;
        std::vector<const std::vector<uint64_t>*> refs;
        for (size_t i = 0; i < k; ++i) {
          ptrs.push_back(ops[(i * 3 + k) % ops.size()].data());
          refs.push_back(&ops[(i * 3 + k) % ops.size()]);
        }
        const std::vector<uint64_t> ref = RefAndAll(refs, n);
        EXPECT_EQ(kernels->multi_and_count(ptrs.data(), k, n),
                  RefPopcount(ref));
        if (k >= 2) {
          std::vector<uint64_t> dst(n, 0xFEEDFACEFEEDFACEULL);
          kernels->and_block(dst.data(), ptrs.data(), k, n);
          EXPECT_EQ(dst, ref);
        }
      }
    }
  }
}

TEST(CountingKernelsTest, AliasingContracts) {
  std::mt19937_64 rng(7);
  for (const CountingKernels* kernels : AvailableKernels()) {
    SCOPED_TRACE(kernels->name);
    const size_t n = 65;
    std::vector<uint64_t> a = RandomWords(n, &rng, 0.4);
    std::vector<uint64_t> b = RandomWords(n, &rng, 0.4);
    const std::vector<uint64_t> ref = RefAndAll({&a, &b}, n);
    // and_inplace with dst == src is the identity.
    std::vector<uint64_t> self = a;
    kernels->and_inplace(self.data(), self.data(), n);
    EXPECT_EQ(self, a);
    // and_count_into may write over either input.
    std::vector<uint64_t> dst = a;
    EXPECT_EQ(kernels->and_count_into(dst.data(), dst.data(), b.data(), n),
              RefPopcount(ref));
    EXPECT_EQ(dst, ref);
  }
}

TEST(CountingKernelsTest, BitmapWrappersRouteThroughActiveKernel) {
  // Force each runnable kernel in turn and check the public Bitmap API
  // returns identical answers — this is the path mining actually takes.
  KernelGuard guard;
  std::mt19937_64 rng(1234);
  const size_t bits = 64 * 65 + 17;  // ragged final word
  Bitmap a(bits), b(bits), c(bits);
  std::bernoulli_distribution pa(0.3), pb(0.5), pc(0.05);
  for (size_t i = 0; i < bits; ++i) {
    if (pa(rng)) a.Set(i);
    if (pb(rng)) b.Set(i);
    if (pc(rng)) c.Set(i);
  }
  std::vector<uint64_t> counts;       // [count(a), a&b, a&b&c, into-count]
  std::vector<Bitmap> intersections;  // materialized a&b per kernel
  for (const CountingKernels* kernels : AvailableKernels()) {
    SCOPED_TRACE(kernels->name);
    ASSERT_TRUE(SetActiveKernel(kernels->name).ok());
    EXPECT_STREQ(ActiveKernelName(), kernels->name);
    Bitmap joined;
    std::vector<uint64_t> got = {
        a.Count(), a.AndCount(b), MultiAndCount({&a, &b, &c}),
        Bitmap::AndCountInto(a, b, &joined)};
    if (counts.empty()) {
      counts = got;
      intersections.push_back(joined);
    } else {
      EXPECT_EQ(got, counts);
      EXPECT_TRUE(joined == intersections.front());
    }
  }
}

// Builds a small synthetic database with deliberately correlated columns so
// multi-item queries have non-trivial counts.
TransactionDatabase MakeDatabase(size_t baskets, ItemId items,
                                 std::mt19937_64* rng) {
  TransactionDatabase db(items);
  std::uniform_real_distribution<double> unit(0.0, 1.0);
  for (size_t row = 0; row < baskets; ++row) {
    std::vector<ItemId> basket;
    for (ItemId i = 0; i < items; ++i) {
      const double p = 0.08 + 0.5 * static_cast<double>(i % 5) / 5.0;
      if (unit(*rng) < p) basket.push_back(i);
    }
    // Item 0 implies item 1 half the time: correlated pair.
    if (!basket.empty() && basket[0] == 0 && unit(*rng) < 0.5) {
      basket.push_back(1);
    }
    EXPECT_TRUE(db.AddBasket(std::move(basket)).ok());
  }
  return db;
}

// Query stream shaped like a level batch: sibling runs sharing a prefix,
// plus singletons, duplicates, and queries whose prefix is itself queried.
std::vector<Itemset> MakeQueries(ItemId items, std::mt19937_64* rng) {
  std::vector<Itemset> queries;
  std::uniform_int_distribution<ItemId> pick(0, items - 1);
  for (ItemId i = 0; i < items; i += 3) queries.push_back(Itemset{i});
  for (int rep = 0; rep < 8; ++rep) {
    // One shared (k-1)-prefix, several extensions.
    std::vector<ItemId> prefix;
    const int k = 2 + rep % 3;
    while (static_cast<int>(prefix.size()) < k - 1) {
      ItemId it = pick(*rng);
      bool dup = false;
      for (ItemId p : prefix) dup |= (p == it);
      if (!dup) prefix.push_back(it);
    }
    queries.push_back(Itemset(prefix));  // prefix itself: self_query path
    for (int e = 0; e < 4; ++e) {
      ItemId ext = pick(*rng);
      bool dup = false;
      for (ItemId p : prefix) dup |= (p == ext);
      if (dup) continue;
      std::vector<ItemId> q = prefix;
      q.push_back(ext);
      queries.push_back(Itemset(q));
    }
  }
  queries.push_back(queries.front());  // duplicate query, distinct slot
  return queries;
}

TEST(BlockedExecutionTest, MatchesNaiveCountsForEveryKernelAndPartition) {
  KernelGuard guard;
  std::mt19937_64 rng(55);
  TransactionDatabase db = MakeDatabase(777, 18, &rng);
  VerticalIndex index(db);
  std::vector<Itemset> queries = MakeQueries(db.num_items(), &rng);

  std::vector<uint64_t> expected(queries.size());
  for (size_t q = 0; q < queries.size(); ++q) {
    expected[q] = index.CountAllPresent(queries[q]);
  }

  BlockedCountPlan plan = BlockedCountPlan::Build(queries);
  EXPECT_EQ(plan.num_queries, queries.size());
  EXPECT_FALSE(plan.groups.empty());

  for (const CountingKernels* kernels : AvailableKernels()) {
    SCOPED_TRACE(kernels->name);
    ASSERT_TRUE(SetActiveKernel(kernels->name).ok());
    // Whole-range execution.
    std::vector<uint64_t> counts(queries.size(), ~uint64_t{0});
    BlockedExecStats stats;
    ExecuteBlockedGroups(plan, 0, plan.groups.size(), index,
                         std::span<uint64_t>(counts), &stats);
    EXPECT_EQ(counts, expected);
    EXPECT_EQ(stats.queries, queries.size());
    EXPECT_EQ(stats.groups, plan.groups.size());
    // Arbitrary partition of the group axis (how morsels parallelize).
    std::vector<uint64_t> partitioned(queries.size(), ~uint64_t{0});
    for (size_t begin = 0; begin < plan.groups.size(); begin += 2) {
      const size_t end = std::min(begin + 2, plan.groups.size());
      ExecuteBlockedGroups(plan, begin, end, index,
                           std::span<uint64_t>(partitioned), nullptr);
    }
    EXPECT_EQ(partitioned, expected);
  }
}

TEST(BlockedExecutionTest, WorkStatsCountLogicalWords) {
  // The kernel.* accounting is in logical words, so it must be identical
  // across kernels — that is what lets verify.sh diff the counters between
  // a forced-scalar and a dispatched run.
  KernelGuard guard;
  std::mt19937_64 rng(99);
  TransactionDatabase db = MakeDatabase(400, 12, &rng);
  VerticalIndex index(db);
  std::vector<Itemset> queries = MakeQueries(db.num_items(), &rng);
  BlockedCountPlan plan = BlockedCountPlan::Build(queries);

  std::vector<BlockedExecStats> per_kernel;
  for (const CountingKernels* kernels : AvailableKernels()) {
    ASSERT_TRUE(SetActiveKernel(kernels->name).ok());
    std::vector<uint64_t> counts(queries.size(), 0);
    BlockedExecStats stats;
    ExecuteBlockedGroups(plan, 0, plan.groups.size(), index,
                         std::span<uint64_t>(counts), &stats);
    per_kernel.push_back(stats);
  }
  ASSERT_FALSE(per_kernel.empty());
  for (const BlockedExecStats& stats : per_kernel) {
    EXPECT_EQ(stats.groups, per_kernel.front().groups);
    EXPECT_EQ(stats.queries, per_kernel.front().queries);
    EXPECT_EQ(stats.and_words, per_kernel.front().and_words);
    EXPECT_EQ(stats.block_and_words, per_kernel.front().block_and_words);
    EXPECT_EQ(stats.popcount_words, per_kernel.front().popcount_words);
  }
}

TEST(BlockedCountPlanTest, GroupsSiblingsAndDeduplicatesWork) {
  // {0,1,2}, {0,1,3}, {0,1,4} share prefix {0,1}; the pair {0,1} is a
  // size-2 query, so it lands in group {0} as extension 1; the singleton
  // {7} — queried twice — is a self group answering both slots with one
  // popcount.
  std::vector<Itemset> queries = {Itemset{0, 1, 2}, Itemset{0, 1},
                                  Itemset{0, 1, 3}, Itemset{7},
                                  Itemset{0, 1, 4}, Itemset{7}};
  BlockedCountPlan plan = BlockedCountPlan::Build(queries);
  ASSERT_EQ(plan.groups.size(), 3u);
  const BlockedCountPlan::Group& shared = plan.groups[0];
  EXPECT_EQ(shared.prefix, (Itemset{0, 1}));
  EXPECT_TRUE(shared.self_queries.empty());
  EXPECT_EQ(shared.ext_items, (std::vector<ItemId>{2, 3, 4}));
  EXPECT_EQ(shared.ext_queries, (std::vector<uint32_t>{0, 2, 4}));
  const BlockedCountPlan::Group& pair = plan.groups[1];
  EXPECT_EQ(pair.prefix, (Itemset{0}));
  EXPECT_EQ(pair.ext_items, (std::vector<ItemId>{1}));
  EXPECT_EQ(pair.ext_queries, (std::vector<uint32_t>{1}));
  const BlockedCountPlan::Group& single = plan.groups[2];
  EXPECT_EQ(single.prefix, (Itemset{7}));
  EXPECT_EQ(single.self_queries, (std::vector<uint32_t>{3, 5}));
  EXPECT_TRUE(single.ext_items.empty());
}

TEST(KernelSelectionTest, RejectsUnknownAndRestoresAuto) {
  KernelGuard guard;
  Status status = SetActiveKernel("vliw");
  EXPECT_FALSE(status.ok());
  EXPECT_NE(status.ToString().find("unknown kernel"), std::string::npos);
  // A failed force leaves the previous selection in place.
  EXPECT_TRUE(SetActiveKernel("scalar").ok());
  EXPECT_FALSE(SetActiveKernel("vliw").ok());
  EXPECT_STREQ(ActiveKernelName(), "scalar");
  EXPECT_EQ(RequestedKernelName(), "scalar");
  ASSERT_TRUE(SetActiveKernel("auto").ok());
  EXPECT_EQ(RequestedKernelName(), "auto");
}

}  // namespace
}  // namespace corrmine
