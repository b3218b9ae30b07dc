//===- tests/support_test.cpp - BitString / strings / errors --------------===//

#include "support/Arch.h"
#include "support/BitString.h"
#include "support/Errors.h"
#include "support/FileIo.h"
#include "support/Hash.h"
#include "support/Lru.h"
#include "support/Rng.h"
#include "support/StringUtils.h"
#include "support/SymbolTable.h"
#include "support/TaskPool.h"
#include "support/Wakeup.h"

#include <gtest/gtest.h>

#include <atomic>
#include <chrono>
#include <condition_variable>
#include <cstdio>
#include <mutex>
#include <set>
#include <stdexcept>
#include <thread>
#include <vector>

#include <poll.h>

using namespace dcb;

TEST(BitString, ConstructsZeroed) {
  BitString B(64);
  EXPECT_EQ(B.size(), 64u);
  EXPECT_EQ(B.popcount(), 0u);
  EXPECT_EQ(B.field(0, 64), 0u);
}

TEST(BitString, ValueConstructorMasksToWidth) {
  BitString B(8, 0x1ff);
  EXPECT_EQ(B.field(0, 8), 0xffu);
}

TEST(BitString, SetAndGetSingleBits) {
  BitString B(64);
  B.set(0, true);
  B.set(63, true);
  EXPECT_TRUE(B.get(0));
  EXPECT_TRUE(B.get(63));
  EXPECT_FALSE(B.get(32));
  EXPECT_EQ(B.popcount(), 2u);
  B.flip(63);
  EXPECT_FALSE(B.get(63));
}

TEST(BitString, FieldInsertExtract) {
  BitString B(64);
  B.setField(10, 8, 0xab);
  EXPECT_EQ(B.field(10, 8), 0xabu);
  EXPECT_EQ(B.field(0, 10), 0u);
  EXPECT_EQ(B.field(18, 10), 0u);
}

TEST(BitString, FieldTruncatesWideValues) {
  BitString B(64);
  B.setField(4, 4, 0xff);
  EXPECT_EQ(B.field(4, 4), 0xfu);
  EXPECT_EQ(B.field(8, 8), 0u);
}

TEST(BitString, FieldsAcrossWordBoundary) {
  BitString B(128);
  B.setField(60, 10, 0x2aa);
  EXPECT_EQ(B.field(60, 10), 0x2aau);
  EXPECT_EQ(B.field(58, 2), 0u);
  EXPECT_EQ(B.field(70, 10), 0u);
}

TEST(BitString, SignedFieldSignExtends) {
  BitString B(64);
  B.setField(8, 8, 0xff);
  EXPECT_EQ(B.signedField(8, 8), -1);
  B.setField(8, 8, 0x7f);
  EXPECT_EQ(B.signedField(8, 8), 127);
}

TEST(BitString, HexRoundTrip64) {
  BitString B(64);
  B.setField(0, 64, 0x123456789abcdef0ull);
  EXPECT_EQ(B.toHex(), "123456789abcdef0");
  BitString Parsed = BitString::fromHex("0x123456789abcdef0", 64);
  EXPECT_EQ(Parsed, B);
}

TEST(BitString, HexRoundTrip128) {
  BitString B(128);
  B.setField(0, 64, 0xdeadbeefcafef00dull);
  B.setField(64, 64, 0x0123456789abcdefull);
  BitString Parsed = BitString::fromHex(B.toHex(), 128);
  EXPECT_EQ(Parsed, B);
}

TEST(BitString, FromHexRejectsGarbage) {
  EXPECT_TRUE(BitString::fromHex("zzzz", 64).empty());
  EXPECT_TRUE(BitString::fromHex("", 64).empty());
  EXPECT_TRUE(BitString::fromHex("0x", 64).empty());
}

TEST(BitString, FromHexRejectsOverflow) {
  EXPECT_TRUE(BitString::fromHex("1ff", 8).empty());
  EXPECT_FALSE(BitString::fromHex("0ff", 8).empty());
}

TEST(BitString, BytesRoundTripLittleEndian) {
  // fromBytes is the bulk little-endian load the disassembler and flipper
  // word paths use: byte I lands at bits [8*I, 8*I+8).
  const uint8_t Bytes[16] = {0xef, 0xcd, 0xab, 0x89, 0x67, 0x45, 0x23, 0x01,
                             0x11, 0x22, 0x33, 0x44, 0x55, 0x66, 0x77, 0x88};
  BitString Word64 = BitString::fromBytes(Bytes, 8);
  EXPECT_EQ(Word64.size(), 64u);
  EXPECT_EQ(Word64.field(0, 64), 0x0123456789abcdefull);

  BitString Word128 = BitString::fromBytes(Bytes, 16);
  EXPECT_EQ(Word128.size(), 128u);
  EXPECT_EQ(Word128.field(0, 64), 0x0123456789abcdefull);
  EXPECT_EQ(Word128.field(64, 64), 0x8877665544332211ull);

  uint8_t Out[16] = {0};
  Word128.toBytes(Out);
  for (unsigned I = 0; I < 16; ++I)
    EXPECT_EQ(Out[I], Bytes[I]) << "byte " << I;

  std::vector<uint8_t> Appended{0xaa};
  Word64.appendBytes(Appended);
  ASSERT_EQ(Appended.size(), 9u);
  EXPECT_EQ(Appended[0], 0xaa);
  for (unsigned I = 0; I < 8; ++I)
    EXPECT_EQ(Appended[I + 1], Bytes[I]) << "byte " << I;
}

TEST(BitString, OrderingIsByWidthThenValue) {
  BitString A(8, 5), B(8, 9), C(16, 1);
  EXPECT_TRUE(A < B);
  EXPECT_TRUE(B < C);
  EXPECT_FALSE(B < A);
}

TEST(StringUtils, Trim) {
  EXPECT_EQ(trim("  hi  "), "hi");
  EXPECT_EQ(trim("hi"), "hi");
  EXPECT_EQ(trim("   "), "");
  EXPECT_EQ(trim(""), "");
}

TEST(StringUtils, SplitKeepsEmptyPieces) {
  auto Pieces = split("a,,b", ',');
  ASSERT_EQ(Pieces.size(), 3u);
  EXPECT_EQ(Pieces[1], "");
}

TEST(StringUtils, SplitLinesDropsCarriageReturn) {
  auto Lines = splitLines("a\r\nb\n");
  ASSERT_EQ(Lines.size(), 3u);
  EXPECT_EQ(Lines[0], "a");
  EXPECT_EQ(Lines[1], "b");
  EXPECT_EQ(Lines[2], "");
}

TEST(StringUtils, ParseUIntDecimalAndHex) {
  EXPECT_EQ(parseUInt("123").value(), 123u);
  EXPECT_EQ(parseUInt("0x7f").value(), 127u);
  EXPECT_EQ(parseUInt("0XFF").value(), 255u);
  EXPECT_FALSE(parseUInt("0x").has_value());
  EXPECT_FALSE(parseUInt("12a").has_value());
  EXPECT_FALSE(parseUInt("").has_value());
}

TEST(StringUtils, ParseUIntRejectsOverflow) {
  EXPECT_TRUE(parseUInt("0xffffffffffffffff").has_value());
  EXPECT_FALSE(parseUInt("0x1ffffffffffffffff").has_value());
}

TEST(StringUtils, ParseIntHandlesSign) {
  EXPECT_EQ(parseInt("-5").value(), -5);
  EXPECT_EQ(parseInt("-0x10").value(), -16);
  EXPECT_EQ(parseInt("7").value(), 7);
}

TEST(StringUtils, HexFormatting) {
  EXPECT_EQ(toHexString(0), "0x0");
  EXPECT_EQ(toHexString(0x1a2b), "0x1a2b");
  EXPECT_EQ(toPaddedHex(0xab, 4), "00ab");
  EXPECT_EQ(toPaddedHex(0, 2), "00");
}

TEST(Errors, ErrorBoolSemantics) {
  EXPECT_FALSE(static_cast<bool>(Error::success()));
  Error E = Error::failure("boom");
  EXPECT_TRUE(static_cast<bool>(E));
  EXPECT_EQ(E.message(), "boom");
}

TEST(Errors, ExpectedValueAndFailure) {
  Expected<int> V(42);
  ASSERT_TRUE(V.hasValue());
  EXPECT_EQ(*V, 42);
  Expected<int> F = Failure("nope");
  ASSERT_FALSE(F.hasValue());
  EXPECT_EQ(F.message(), "nope");
  EXPECT_TRUE(static_cast<bool>(F.takeError()));
}

TEST(Rng, DeterministicAcrossInstances) {
  Rng A(7), B(7);
  for (int I = 0; I < 100; ++I)
    EXPECT_EQ(A.next(), B.next());
}

TEST(Rng, RangesStayInBounds) {
  Rng R(11);
  for (int I = 0; I < 1000; ++I) {
    uint64_t V = R.range(3, 9);
    EXPECT_GE(V, 3u);
    EXPECT_LE(V, 9u);
  }
}

TEST(TaskPool, EveryIndexRunsExactlyOnceAndInOrderSlots) {
  TaskPool Pool(4);
  EXPECT_EQ(Pool.numThreads(), 4u);
  // Each index is claimed by exactly one lane, so per-slot writes need no
  // locking; draining the slots by index reproduces the serial order.
  std::vector<size_t> Out(1000, ~size_t(0));
  std::atomic<unsigned> MaxLane{0};
  Pool.parallelFor(1000, [&](unsigned Lane, size_t Idx) {
    unsigned Seen = MaxLane.load();
    while (Lane > Seen && !MaxLane.compare_exchange_weak(Seen, Lane))
      ;
    Out[Idx] = Idx * Idx;
  });
  for (size_t I = 0; I < Out.size(); ++I)
    EXPECT_EQ(Out[I], I * I);
  EXPECT_LT(MaxLane.load(), Pool.numThreads());
}

TEST(TaskPool, ZeroTasksIsANoOp) {
  TaskPool Pool(3);
  std::atomic<bool> Ran{false};
  Pool.parallelFor(0, [&](unsigned, size_t) { Ran = true; });
  EXPECT_FALSE(Ran.load());
}

TEST(TaskPool, OneThreadRunsInlineOnTheCaller) {
  TaskPool Pool(1);
  EXPECT_EQ(Pool.numThreads(), 1u);
  std::vector<size_t> Order;
  std::vector<std::thread::id> Ids;
  Pool.parallelFor(50, [&](unsigned Lane, size_t Idx) {
    EXPECT_EQ(Lane, 0u);
    Order.push_back(Idx);
    Ids.push_back(std::this_thread::get_id());
  });
  ASSERT_EQ(Order.size(), 50u);
  for (size_t I = 0; I < Order.size(); ++I) {
    EXPECT_EQ(Order[I], I); // Inline execution preserves index order.
    EXPECT_EQ(Ids[I], std::this_thread::get_id());
  }
}

TEST(TaskPool, PropagatesLowestIndexException) {
  TaskPool Pool(4);
  std::atomic<unsigned> Completed{0};
  try {
    Pool.parallelFor(200, [&](unsigned, size_t Idx) {
      if (Idx % 7 == 3)
        throw std::runtime_error("task " + std::to_string(Idx));
      ++Completed;
    });
    FAIL() << "expected parallelFor to rethrow";
  } catch (const std::runtime_error &E) {
    // The winner is chosen by task index, not completion time, so the
    // rethrown exception is deterministic under any scheduling.
    EXPECT_STREQ(E.what(), "task 3");
  }
  // The batch drained fully despite the throws.
  EXPECT_EQ(Completed.load(), 200u - 200u / 7u - 1u);
}

TEST(TaskPool, ReusableAcrossBatches) {
  TaskPool Pool(3);
  std::atomic<uint64_t> Sum{0};
  for (unsigned Batch = 0; Batch < 5; ++Batch)
    Pool.parallelFor(100, [&](unsigned, size_t Idx) { Sum += Idx; });
  EXPECT_EQ(Sum.load(), 5u * (99u * 100u / 2u));
}

TEST(TaskPool, ZeroThreadsPicksHardwareWidth) {
  TaskPool Pool(0);
  EXPECT_GE(Pool.numThreads(), 1u);
  std::atomic<uint64_t> Sum{0};
  Pool.parallelFor(64, [&](unsigned, size_t Idx) { Sum += Idx + 1; });
  EXPECT_EQ(Sum.load(), 64u * 65u / 2u);
}

TEST(TaskPool, LaneCapLimitsTheLanesABatchUses) {
  TaskPool Pool(4);
  std::set<unsigned> Lanes;
  std::mutex LanesM;
  Pool.parallelFor(
      400,
      [&](unsigned Lane, size_t) {
        std::lock_guard<std::mutex> Lock(LanesM);
        Lanes.insert(Lane);
      },
      2);
  // Lanes go by worker index: worker 0 and the caller (the last lane).
  for (unsigned Lane : Lanes)
    EXPECT_TRUE(Lane == 0 || Lane == Pool.numThreads() - 1) << Lane;
}

TEST(TaskPool, NestedBatchRunsInlineOnTheCallingLane) {
  TaskPool Pool(3);
  std::vector<int> Inline(8, 0);
  Pool.parallelFor(8, [&](unsigned, size_t Outer) {
    const std::thread::id Self = std::this_thread::get_id();
    bool SameThread = true;
    size_t Next = 0;
    bool InOrder = true;
    Pool.parallelFor(16, [&](unsigned, size_t Inner) {
      SameThread = SameThread && std::this_thread::get_id() == Self;
      InOrder = InOrder && Inner == Next++;
    });
    Inline[Outer] = SameThread && InOrder && Next == 16;
  });
  for (size_t I = 0; I < Inline.size(); ++I)
    EXPECT_EQ(Inline[I], 1) << I;
}

TEST(TaskPool, BusyPoolRunsAnotherCallersBatchInline) {
  TaskPool Pool(3);
  std::mutex Mu;
  std::condition_variable Cv;
  bool Holding = false, OtherDone = false;
  std::thread Holder([&] {
    Pool.parallelFor(
        2,
        [&](unsigned, size_t Idx) {
          if (Idx != 0)
            return;
          std::unique_lock<std::mutex> Lock(Mu);
          Holding = true;
          Cv.notify_all();
          Cv.wait(Lock, [&] { return OtherDone; });
        },
        2);
  });
  {
    std::unique_lock<std::mutex> Lock(Mu);
    Cv.wait(Lock, [&] { return Holding; });
  }
  // The pool is busy with the holder's batch, which cannot finish until
  // this call returns: it must run inline rather than wait.
  const std::thread::id Self = std::this_thread::get_id();
  std::atomic<unsigned> OnCaller{0};
  Pool.parallelFor(32, [&](unsigned, size_t) {
    OnCaller += std::this_thread::get_id() == Self;
  });
  EXPECT_EQ(OnCaller.load(), 32u);
  {
    std::lock_guard<std::mutex> Lock(Mu);
    OtherDone = true;
  }
  Cv.notify_all();
  Holder.join();
}

TEST(TaskPool, ProcessPoolIsOneSharedInstance) {
  TaskPool &Pool = TaskPool::process();
  EXPECT_EQ(&Pool, &TaskPool::process());
  EXPECT_EQ(Pool.numThreads(), TaskPool::resolveThreads(0));
  std::atomic<uint64_t> Sum{0};
  Pool.parallelFor(100, [&](unsigned, size_t Idx) { Sum += Idx; }, 2);
  EXPECT_EQ(Sum.load(), 99u * 100u / 2u);
}

TEST(TaskPool, ChunkedDispatchCoversEveryIndexOnce) {
  for (size_t Chunk : {size_t(1), size_t(7), size_t(64), size_t(1000)}) {
    TaskPool Pool(4);
    std::vector<std::atomic<int>> Hits(200);
    parallelForChunked(Pool, Hits.size(), Chunk,
                       [&](size_t I) { Hits[I] += 1; });
    for (size_t I = 0; I < Hits.size(); ++I)
      EXPECT_EQ(Hits[I].load(), 1) << "index " << I << " chunk " << Chunk;
  }
}

TEST(TaskPool, ChunkedDispatchToleratesZeroChunkSize) {
  TaskPool Pool(2);
  std::atomic<uint64_t> Sum{0};
  parallelForChunked(Pool, 10, 0, [&](size_t I) { Sum += I + 1; });
  EXPECT_EQ(Sum.load(), 55u);
}

TEST(BatchOptions, LanesNeverExceedChunkCount) {
  BatchOptions Four;
  Four.NumThreads = 4;
  Four.ChunkSize = 64;
  EXPECT_EQ(Four.lanesFor(0), 1u);
  EXPECT_EQ(Four.lanesFor(64), 1u) << "one chunk runs inline";
  EXPECT_EQ(Four.lanesFor(65), 2u);
  EXPECT_EQ(Four.lanesFor(10000), 4u);
  Four.ChunkSize = 0; // Treated as 1, as parallelForChunked does.
  EXPECT_EQ(Four.lanesFor(3), 3u);

  BatchOptions AllCores;
  AllCores.NumThreads = 0;
  EXPECT_EQ(AllCores.lanesFor(1), 1u);
  EXPECT_EQ(AllCores.lanesFor(size_t(1) << 30),
            TaskPool::resolveThreads(0));
  EXPECT_GE(TaskPool::resolveThreads(0), 1u);
}

TEST(SymbolTable, InternIsIdempotentAndOrdered) {
  SymbolTable &Syms = SymbolTable::global();
  SymbolId A = Syms.intern("symtab-test-alpha");
  SymbolId B = Syms.intern("symtab-test-beta");
  EXPECT_NE(A, B);
  EXPECT_EQ(Syms.intern("symtab-test-alpha"), A);
  EXPECT_EQ(Syms.intern("symtab-test-beta"), B);
  EXPECT_EQ(Syms.spelling(A), "symtab-test-alpha");
  EXPECT_EQ(Syms.spelling(B), "symtab-test-beta");
}

TEST(SymbolTable, FindDoesNotIntern) {
  SymbolTable &Syms = SymbolTable::global();
  size_t Before = Syms.size();
  EXPECT_EQ(Syms.find("symtab-test-never-interned"), InvalidSymbolId);
  EXPECT_EQ(Syms.size(), Before);
  SymbolId Id = Syms.intern("symtab-test-find-me");
  EXPECT_EQ(Syms.find("symtab-test-find-me"), Id);
}

TEST(SymbolTable, ConcurrentInterningConverges) {
  // All threads intern the same spellings; every spelling must map to one
  // id and ids must stay resolvable while insertions continue elsewhere.
  SymbolTable &Syms = SymbolTable::global();
  constexpr unsigned NumThreads = 4, NumSymbols = 200;
  std::vector<std::vector<SymbolId>> PerThread(NumThreads);
  std::vector<std::thread> Threads;
  for (unsigned T = 0; T < NumThreads; ++T)
    Threads.emplace_back([&, T] {
      PerThread[T].reserve(NumSymbols);
      for (unsigned I = 0; I < NumSymbols; ++I) {
        std::string Spelling =
            "symtab-test-concurrent-" + std::to_string(I);
        SymbolId Id = Syms.intern(Spelling);
        EXPECT_EQ(Syms.spelling(Id), Spelling);
        PerThread[T].push_back(Id);
      }
    });
  for (std::thread &T : Threads)
    T.join();
  for (unsigned T = 1; T < NumThreads; ++T)
    EXPECT_EQ(PerThread[T], PerThread[0]);
}

TEST(Arch, NamesRoundTrip) {
  unsigned Count = 0;
  const Arch *All = supportedArchs(Count);
  for (unsigned I = 0; I < Count; ++I) {
    auto Back = archFromName(archName(All[I]));
    ASSERT_TRUE(Back.has_value());
    EXPECT_EQ(*Back, All[I]);
  }
  EXPECT_FALSE(archFromName("sm_99").has_value());
}

TEST(Arch, FamilyAndSchiFacts) {
  EXPECT_EQ(archFamily(Arch::SM30), EncodingFamily::Fermi);
  EXPECT_EQ(archFamily(Arch::SM61), EncodingFamily::Maxwell);
  EXPECT_EQ(archSchiKind(Arch::SM20), SchiKind::None);
  EXPECT_EQ(archSchiKind(Arch::SM30), SchiKind::Kepler30);
  EXPECT_EQ(archSchiKind(Arch::SM35), SchiKind::Kepler35);
  EXPECT_EQ(archSchiKind(Arch::SM52), SchiKind::Maxwell);
  EXPECT_EQ(schiGroupSize(SchiKind::Kepler35), 8u);
  EXPECT_EQ(schiGroupSize(SchiKind::Maxwell), 4u);
  EXPECT_EQ(archWordBits(Arch::SM70), 128u);
}

//===----------------------------------------------------------------------===//
// Hash
//===----------------------------------------------------------------------===//

TEST(Hash, GoldenVectorsPinTheFunction) {
  // The cache keys content by these digests; silently changing the
  // function would orphan every persisted fingerprint, so the values are
  // pinned. Update deliberately or not at all.
  EXPECT_EQ(hash64(""), 0x6f6ce74cb236be27ull);
  EXPECT_EQ(hash64("dcb"), 0x34c5c20d341a923full);
  EXPECT_EQ(hash128("").toHex(), "8846315c7c5b3b8d19fb3903420c69d2");
  EXPECT_EQ(hash128("decoding cuda binary").toHex(),
            "5f691d6da8af050f7a975b540f98faf1");
}

TEST(Hash, SplitStreamingEqualsOneShot) {
  const std::string Text =
      "a moderately long input that spans several 8-byte chunks plus tail";
  for (size_t Split = 0; Split <= Text.size(); Split += 7) {
    Hasher H;
    H.update(std::string_view(Text).substr(0, Split));
    H.update(std::string_view(Text).substr(Split));
    EXPECT_EQ(H.digest128(), hash128(Text)) << "split at " << Split;
  }
}

TEST(Hash, LengthFramedU64DiffersFromRawBytes) {
  Hasher A;
  A.updateU64(0x6263u); // "bc\0\0\0\0\0\0" little-endian framing.
  Hasher B;
  B.update("bc");
  EXPECT_NE(A.digest128(), B.digest128());
}

TEST(Hash, CollisionSanityOverManyKeys) {
  // 64k distinct short keys: no 128-bit collisions, and the low 64 bits
  // spread well enough that a sharded cache won't starve.
  std::set<std::string> Seen128;
  std::vector<unsigned> ShardLoad(16, 0);
  for (unsigned I = 0; I < 65536; ++I) {
    Hash128 H = hash128("key-" + std::to_string(I));
    Seen128.insert(H.toHex());
    ++ShardLoad[H.Lo % 16];
  }
  EXPECT_EQ(Seen128.size(), 65536u);
  for (unsigned Load : ShardLoad) {
    EXPECT_GT(Load, 65536u / 16 / 2);
    EXPECT_LT(Load, 65536u / 16 * 2);
  }
}

TEST(Hash, DigestIsRepeatableAndPrefixInsensitive) {
  EXPECT_EQ(hash128("abc"), hash128("abc"));
  EXPECT_NE(hash128("abc"), hash128("abd"));
  EXPECT_NE(hash128("abc"), hash128("abcabc"));
  EXPECT_NE(hash64("abc"), hash64("abd"));
  // digest*() is observation, not consumption: calling it twice agrees.
  Hasher H;
  H.update("abc");
  EXPECT_EQ(H.digest64(), H.digest64());
  EXPECT_EQ(H.digest128(), H.digest128());
}

//===----------------------------------------------------------------------===//
// LruMap
//===----------------------------------------------------------------------===//

TEST(Lru, PutGetAndTouchOrder) {
  LruMap<int, std::string> M(100);
  EXPECT_TRUE(M.put(1, "one", 30));
  EXPECT_TRUE(M.put(2, "two", 30));
  EXPECT_TRUE(M.put(3, "three", 30));
  ASSERT_NE(M.get(1), nullptr); // Touch 1: now 2 is the coldest.
  EXPECT_TRUE(M.put(4, "four", 30));
  EXPECT_EQ(M.get(2), nullptr) << "2 was coldest and must have evicted";
  EXPECT_NE(M.get(1), nullptr);
  EXPECT_NE(M.get(3), nullptr);
  EXPECT_NE(M.get(4), nullptr);
  EXPECT_EQ(M.evictions(), 1u);
}

TEST(Lru, EvictsColdestWhileOverBudget) {
  LruMap<int, int> M(100);
  for (int I = 0; I < 10; ++I)
    EXPECT_TRUE(M.put(I, I, 10));
  EXPECT_EQ(M.size(), 10u);
  // One 95-byte entry forces out enough cold entries to fit.
  EXPECT_TRUE(M.put(99, 99, 95));
  EXPECT_LE(M.bytes(), M.budget());
  EXPECT_NE(M.get(99), nullptr);
  EXPECT_EQ(M.get(0), nullptr);
}

TEST(Lru, OversizedEntryIsDeclinedAndStaleValueDropped) {
  LruMap<int, int> M(50);
  EXPECT_TRUE(M.put(1, 10, 20));
  // Updating 1 with an oversized value must not leave the stale 10 behind.
  EXPECT_FALSE(M.put(1, 11, 500));
  EXPECT_EQ(M.get(1), nullptr);
  EXPECT_EQ(M.bytes(), 0u);
}

TEST(Lru, PeekDoesNotTouch) {
  LruMap<int, int> M(60);
  M.put(1, 1, 20);
  M.put(2, 2, 20);
  M.put(3, 3, 20);
  EXPECT_NE(M.peek(1), nullptr); // No touch: 1 stays coldest.
  M.put(4, 4, 20);
  EXPECT_EQ(M.get(1), nullptr);
  EXPECT_NE(M.get(2), nullptr);
}

TEST(Lru, UpdateReplacesValueAndBytes) {
  LruMap<int, std::string> M(100);
  M.put(1, "short", 10);
  M.put(1, "longer", 40);
  EXPECT_EQ(M.bytes(), 40u);
  ASSERT_NE(M.get(1), nullptr);
  EXPECT_EQ(*M.get(1), "longer");
  EXPECT_EQ(M.size(), 1u);
}

TEST(Lru, EraseAndClear) {
  LruMap<int, int> M(100);
  M.put(1, 1, 10);
  M.put(2, 2, 10);
  EXPECT_TRUE(M.erase(1));
  EXPECT_FALSE(M.erase(1));
  EXPECT_EQ(M.bytes(), 10u);
  M.clear();
  EXPECT_EQ(M.size(), 0u);
  EXPECT_EQ(M.bytes(), 0u);
}

//===----------------------------------------------------------------------===//
// TaskPool bounded submission
//===----------------------------------------------------------------------===//

TEST(TaskPoolSubmit, RunsSubmittedTasksOnWorkers) {
  TaskPool Pool(4);
  std::atomic<int> Ran{0};
  for (int I = 0; I < 32; ++I)
    EXPECT_EQ(Pool.trySubmit([&Ran] { Ran.fetch_add(1); }),
              TaskPool::Submit::Queued);
  Pool.drainSubmitted();
  EXPECT_EQ(Ran.load(), 32);
  EXPECT_EQ(Pool.submittedPending(), 0u);
}

TEST(TaskPoolSubmit, EveryWorkerStaysAvailableAcrossManyRounds) {
  // A worker woken for a task that another worker took first must park as
  // idle again, or trySubmit never wakes it for later tasks and the pool
  // shrinks for good. Bursts of short tasks make such steals common; after
  // each burst, three tasks that wait for each other need all three
  // workers. A worker lost to a steal leaves them waiting out the timeout.
  TaskPool Pool(4);
  std::atomic<unsigned> Ran{0};
  std::mutex Mu;
  std::condition_variable Cv;
  bool Stuck = false;
  unsigned Rounds = 0;
  for (; Rounds < 50 && !Stuck; ++Rounds) {
    for (int I = 0; I < 2000; ++I)
      ASSERT_EQ(Pool.trySubmit([&Ran] { Ran.fetch_add(1); }),
                TaskPool::Submit::Queued);
    Pool.drainSubmitted();
    unsigned Arrived = 0;
    auto Meet = [&] {
      std::unique_lock<std::mutex> Lock(Mu);
      ++Arrived;
      Cv.notify_all();
      if (!Cv.wait_for(Lock, std::chrono::seconds(2),
                       [&] { return Arrived >= 3; }))
        Stuck = true;
    };
    for (int I = 0; I < 3; ++I)
      ASSERT_EQ(Pool.trySubmit(Meet), TaskPool::Submit::Queued);
    Pool.drainSubmitted();
    EXPECT_FALSE(Stuck) << "round " << Rounds;
  }
  EXPECT_EQ(Ran.load(), Rounds * 2000u);
}

TEST(TaskPoolSubmit, BoundedModeRejectsWhenQueueIsFull) {
  TaskPool Pool(2); // One worker thread.
  std::atomic<bool> Started{false};
  std::atomic<bool> Release{false};
  std::atomic<int> Ran{0};
  // Occupy the worker so queued depth is observable.
  ASSERT_EQ(Pool.trySubmit([&] {
    Started.store(true);
    while (!Release.load())
      std::this_thread::yield();
    Ran.fetch_add(1);
  }),
            TaskPool::Submit::Queued);
  // Wait for the worker to pick the blocker up (queue empties).
  while (!Started.load())
    std::this_thread::yield();

  ASSERT_EQ(Pool.trySubmit([&] { Ran.fetch_add(1); }, 2),
            TaskPool::Submit::Queued);
  ASSERT_EQ(Pool.trySubmit([&] { Ran.fetch_add(1); }, 2),
            TaskPool::Submit::Queued);
  // Queue now holds 2 of max 2: the next bounded submit must shed.
  EXPECT_EQ(Pool.trySubmit([&] { Ran.fetch_add(1); }, 2),
            TaskPool::Submit::WouldBlock);
  // Unbounded submit on the same pool still queues.
  EXPECT_EQ(Pool.trySubmit([&] { Ran.fetch_add(1); }),
            TaskPool::Submit::Queued);

  Release.store(true);
  Pool.drainSubmitted();
  EXPECT_EQ(Ran.load(), 4) << "the shed task must not have run";
}

TEST(TaskPoolSubmit, NoWorkerPoolRunsInline) {
  TaskPool Pool(1); // Width 1: no worker threads at all.
  int Ran = 0;
  EXPECT_EQ(Pool.trySubmit([&Ran] { ++Ran; }, 1), TaskPool::Submit::Queued);
  EXPECT_EQ(Ran, 1) << "no-worker pools run the task on the caller";
  Pool.drainSubmitted();
}

TEST(TaskPoolSubmit, DrainIsSafeWithNothingSubmitted) {
  TaskPool Pool(3);
  Pool.drainSubmitted();
  EXPECT_EQ(Pool.submittedPending(), 0u);
}

TEST(TaskPoolSubmit, ParallelForStillWorksAlongsideSubmission) {
  TaskPool Pool(4);
  std::atomic<int> Submitted{0};
  for (int I = 0; I < 8; ++I)
    Pool.trySubmit([&Submitted] { Submitted.fetch_add(1); });
  std::vector<int> Out(64, 0);
  Pool.parallelFor(Out.size(),
                   [&Out](unsigned, size_t I) { Out[I] = int(I); });
  Pool.drainSubmitted();
  for (size_t I = 0; I < Out.size(); ++I)
    EXPECT_EQ(Out[I], int(I));
  EXPECT_EQ(Submitted.load(), 8);
}

TEST(TaskPoolSubmit, SubmittedExceptionsAreSwallowed) {
  TaskPool Pool(2);
  EXPECT_EQ(Pool.trySubmit([] { throw std::runtime_error("boom"); }),
            TaskPool::Submit::Queued);
  Pool.drainSubmitted(); // Must not rethrow or wedge the worker.
  std::atomic<int> Ran{0};
  Pool.trySubmit([&Ran] { Ran.fetch_add(1); });
  Pool.drainSubmitted();
  EXPECT_EQ(Ran.load(), 1);
}

TEST(Lru, RetiredBytesCountsEvictReplaceAndErase) {
  LruMap<int, int> M(100);
  EXPECT_EQ(M.retiredBytes(), 0u);
  M.put(1, 10, 40);
  M.put(2, 20, 40);
  M.put(3, 30, 40); // Evicts key 1 (40 bytes retired).
  EXPECT_EQ(M.retiredBytes(), 40u);
  M.put(2, 21, 50); // Replacement retires the old 40-byte entry...
  EXPECT_EQ(M.retiredBytes(), 80u);
  EXPECT_EQ(M.bytes(), 90u); // ...and the new one is live.
  M.erase(3);
  EXPECT_EQ(M.retiredBytes(), 120u);
  M.put(9, 90, 1000); // Oversize: declined, nothing retired for it.
  EXPECT_EQ(M.retiredBytes(), 120u);
  M.clear();
  EXPECT_EQ(M.retiredBytes(), 170u); // clear() retires the live 50 bytes.
}

TEST(Lru, ForEachOldestWalksColdToHotWithoutTouching) {
  LruMap<int, int> M(1000);
  M.put(1, 10, 10);
  M.put(2, 20, 10);
  M.put(3, 30, 10);
  M.get(1); // Recency now (cold to hot): 2, 3, 1.
  std::vector<int> Order;
  M.forEachOldest([&](int Key, int, size_t Bytes) {
    Order.push_back(Key);
    EXPECT_EQ(Bytes, 10u);
  });
  EXPECT_EQ(Order, (std::vector<int>{2, 3, 1}));
  // The walk itself must not promote anything: 2 is still coldest.
  M.put(4, 40, 980);
  EXPECT_EQ(M.peek(2), nullptr);
  EXPECT_NE(M.peek(1), nullptr);
}

TEST(FileIo, ReadWriteAtomicRoundTrips) {
  const std::string Path = ::testing::TempDir() + "dcb_fileio_atomic.bin";
  std::remove(Path.c_str());
  EXPECT_FALSE(fileExists(Path));
  EXPECT_FALSE(readFileBytes(Path).hasValue());

  std::string Payload = "binary\0bytes\nwith newline";
  Payload.push_back('\0');
  ASSERT_FALSE(writeFileAtomic(Path, Payload));
  EXPECT_TRUE(fileExists(Path));
  Expected<std::string> Back = readFileBytes(Path);
  ASSERT_TRUE(Back.hasValue()) << Back.message();
  EXPECT_EQ(*Back, Payload);
  Expected<uint64_t> Size = fileSize(Path);
  ASSERT_TRUE(Size.hasValue());
  EXPECT_EQ(*Size, Payload.size());

  // Replace must be whole-or-nothing: new content, no tmp residue.
  ASSERT_FALSE(writeFileAtomic(Path, "second"));
  Back = readFileBytes(Path);
  ASSERT_TRUE(Back.hasValue());
  EXPECT_EQ(*Back, "second");
  EXPECT_FALSE(fileExists(Path + ".tmp"));
  std::remove(Path.c_str());
}

TEST(FileIo, AppendFileAppendsAndTruncates) {
  const std::string Path = ::testing::TempDir() + "dcb_fileio_append.log";
  std::remove(Path.c_str());
  {
    Expected<AppendFile> F = AppendFile::open(Path);
    ASSERT_TRUE(F.hasValue()) << F.message();
    ASSERT_FALSE(F->append("one"));
    ASSERT_FALSE(F->append("-two"));
  } // close() on destruction.
  {
    // Reopening appends after the existing bytes.
    Expected<AppendFile> F = AppendFile::open(Path);
    ASSERT_TRUE(F.hasValue());
    ASSERT_FALSE(F->append("-three"));
    Expected<std::string> Back = readFileBytes(Path);
    ASSERT_TRUE(Back.hasValue());
    EXPECT_EQ(*Back, "one-two-three");
    ASSERT_FALSE(F->truncateTo(3)); // Drop a "torn tail".
    ASSERT_FALSE(F->append("!"));
  }
  Expected<std::string> Back = readFileBytes(Path);
  ASSERT_TRUE(Back.hasValue());
  EXPECT_EQ(*Back, "one!");
  std::remove(Path.c_str());
}

TEST(Wakeup, SignalMakesFdReadableAndDrainQuietsIt) {
  Expected<WakeupFd> W = WakeupFd::create();
  ASSERT_TRUE(W.hasValue()) << W.message();
  ASSERT_TRUE(W->isOpen());

  auto Readable = [&](int TimeoutMs) {
    pollfd P{W->fd(), POLLIN, 0};
    return ::poll(&P, 1, TimeoutMs) == 1 && (P.revents & POLLIN);
  };

  EXPECT_FALSE(Readable(0)); // Quiet until signalled.
  W->signal();
  W->signal(); // Coalesces; still one readable event.
  EXPECT_TRUE(Readable(1000));
  W->drain();
  EXPECT_FALSE(Readable(0)); // Drain consumed everything.

  // Cross-thread: the poll-side sees a signal sent from another thread.
  std::thread T([&] { W->signal(); });
  EXPECT_TRUE(Readable(1000));
  T.join();
  W->drain();
  EXPECT_FALSE(Readable(0));
}
