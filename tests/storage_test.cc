#include <gtest/gtest.h>
#include <unistd.h>

#include <cstdio>
#include <string>
#include <vector>

#include <map>

#include "hopi/build.h"
#include "storage/compress.h"
#include "storage/format.h"
#include "storage/linlout.h"
#include "storage/mapped_linlout.h"
#include "test_util.h"
#include "twohop/builder.h"

namespace hopi::storage {
namespace {

twohop::TwoHopCover SampleCover(bool with_distance, uint64_t seed = 5) {
  Digraph g = hopi::testing::RandomDag(40, 2.0, seed);
  twohop::CoverBuildOptions options;
  options.with_distance = with_distance;
  auto cover = twohop::BuildCover(g, options);
  EXPECT_TRUE(cover.ok());
  return std::move(cover).value();
}

/// Options for the writer: `version`, and tiny v4 blocks so even the
/// test covers span several blocks per section.
StoreWriteOptions SmallBlocks(uint32_t version) {
  StoreWriteOptions options;
  options.format_version = version;
  options.compress.target_block_bytes = 256;
  options.compress.cluster_split_bytes = 64;
  return options;
}

/// Overwrites `size` bytes at `offset` of the file at `path`.
void PatchFile(const std::string& path, long offset, const void* bytes,
               size_t size) {
  FILE* f = std::fopen(path.c_str(), "rb+");
  ASSERT_NE(f, nullptr);
  std::fseek(f, offset, SEEK_SET);
  ASSERT_EQ(std::fwrite(bytes, size, 1, f), 1u);
  std::fclose(f);
}

// ---- the paper's query shapes, through every reader ----

/// One way to read a LIN/LOUT file: the format version it was written
/// in and the open mode (mmap, buffered, or lazy v4).
struct ReaderMode {
  const char* name;
  uint32_t version;
  MappedOpenOptions open;
};

const ReaderMode kReaderModes[] = {
    {"v3_mmap", kFormatVersion, {}},
    {"v3_buffered", kFormatVersion, {.prefer_mmap = false}},
    {"v4_mmap", kFormatVersionV4, {}},
    {"v4_buffered", kFormatVersionV4, {.prefer_mmap = false}},
    {"v4_lazy", kFormatVersionV4, {.verify_file_checksum = false}},
};

class StoreReaderTest : public ::testing::TestWithParam<ReaderMode> {
 protected:
  void TearDown() override { std::remove(path_.c_str()); }

  /// Writes `cover` in the mode's version and opens it in its reader.
  Result<MappedLinLoutStore> Store(const twohop::TwoHopCover& cover,
                                   bool with_distance) {
    HOPI_RETURN_NOT_OK(WriteLinLoutFile(cover, with_distance, path_,
                                        SmallBlocks(GetParam().version)));
    return MappedLinLoutStore::Open(path_, GetParam().open);
  }

  std::string path_ = ::testing::TempDir() + "hopi_store_reader_test.bin";
};

INSTANTIATE_TEST_SUITE_P(
    Readers, StoreReaderTest, ::testing::ValuesIn(kReaderModes),
    [](const ::testing::TestParamInfo<ReaderMode>& info) {
      return std::string(info.param.name);
    });

TEST_P(StoreReaderTest, ConnectionTestMatchesCover) {
  twohop::TwoHopCover cover = SampleCover(false);
  auto store = Store(cover, false);
  ASSERT_TRUE(store.ok()) << store.status();
  EXPECT_EQ(store->format_version(), GetParam().version);
  for (NodeId u = 0; u < cover.NumNodes(); ++u) {
    for (NodeId v = 0; v < cover.NumNodes(); ++v) {
      EXPECT_EQ(store->TestConnection(u, v), cover.IsConnected(u, v))
          << u << "->" << v;
    }
  }
}

TEST_P(StoreReaderTest, MinDistanceMatchesCover) {
  twohop::TwoHopCover cover = SampleCover(true);
  auto store = Store(cover, true);
  ASSERT_TRUE(store.ok()) << store.status();
  for (NodeId u = 0; u < cover.NumNodes(); ++u) {
    for (NodeId v = 0; v < cover.NumNodes(); ++v) {
      EXPECT_EQ(store->MinDistance(u, v), cover.Distance(u, v))
          << u << "->" << v;
    }
  }
}

TEST_P(StoreReaderTest, DescendantsAncestorsMatchGraph) {
  Digraph g = hopi::testing::RandomDag(35, 2.0, 9);
  auto cover = twohop::BuildCover(g);
  ASSERT_TRUE(cover.ok());
  auto store = Store(*cover, false);
  ASSERT_TRUE(store.ok()) << store.status();
  twohop::IndexedCover indexed(*cover);
  for (NodeId u = 0; u < g.NumNodes(); ++u) {
    EXPECT_EQ(store->Descendants(u), indexed.Descendants(u));
    EXPECT_EQ(store->Ancestors(u), indexed.Ancestors(u));
  }
}

TEST_P(StoreReaderTest, EntryAccounting) {
  twohop::TwoHopCover cover = SampleCover(false);
  auto store = Store(cover, false);
  ASSERT_TRUE(store.ok()) << store.status();
  EXPECT_EQ(store->NumEntries(), cover.Size());
  // 2 ints per forward row, doubled by the backward index.
  EXPECT_EQ(store->StorageIntegers(), cover.Size() * 4);
  auto dstore = Store(cover, true);
  ASSERT_TRUE(dstore.ok()) << dstore.status();
  EXPECT_EQ(dstore->StorageIntegers(), cover.Size() * 6);
}

TEST_P(StoreReaderTest, DecodedRowsMatchCoverLabels) {
  twohop::TwoHopCover cover = SampleCover(true, 41);
  auto store = Store(cover, true);
  ASSERT_TRUE(store.ok()) << store.status();
  for (NodeId u = 0; u < cover.NumNodes(); ++u) {
    auto lin = store->DecodeLinRow(u);
    ASSERT_TRUE(lin.ok()) << lin.status();
    EXPECT_EQ(std::vector<twohop::LabelEntry>(lin->entries.begin(),
                                              lin->entries.end()),
              cover.In(u))
        << "LIN " << u;
    auto lout = store->DecodeLoutRow(u);
    ASSERT_TRUE(lout.ok()) << lout.status();
    EXPECT_EQ(std::vector<twohop::LabelEntry>(lout->entries.begin(),
                                              lout->entries.end()),
              cover.Out(u))
        << "LOUT " << u;
  }
}

TEST_P(StoreReaderTest, ToCoverRoundTripsExactly) {
  twohop::TwoHopCover cover = SampleCover(true, 13);
  auto store = Store(cover, true);
  ASSERT_TRUE(store.ok()) << store.status();
  auto back = store->ToCover(cover.NumNodes());
  ASSERT_TRUE(back.ok()) << back.status();
  EXPECT_EQ(back->Size(), cover.Size());
  for (NodeId u = 0; u < cover.NumNodes(); ++u) {
    EXPECT_EQ(back->In(u), cover.In(u)) << u;
    EXPECT_EQ(back->Out(u), cover.Out(u)) << u;
  }
  // A cover too small for the stored rows is refused, not overrun.
  EXPECT_TRUE(store->ToCover(1).status().IsInvalidArgument());
}

TEST_P(StoreReaderTest, DistanceFlagRoundTrips) {
  twohop::TwoHopCover cover = SampleCover(true, 31);
  for (bool with_distance : {false, true}) {
    auto store = Store(cover, with_distance);
    ASSERT_TRUE(store.ok()) << store.status();
    EXPECT_EQ(store->with_distance(), with_distance);
  }
}

TEST_P(StoreReaderTest, EmptyStoreAnswersNothing) {
  auto store = Store(twohop::TwoHopCover(5), false);
  ASSERT_TRUE(store.ok()) << store.status();
  EXPECT_EQ(store->NumEntries(), 0u);
  EXPECT_FALSE(store->TestConnection(0, 1));
  EXPECT_TRUE(store->TestConnection(2, 2));  // reflexive
  EXPECT_TRUE(store->Descendants(3).empty());
  EXPECT_TRUE(store->Ancestors(3).empty());
  EXPECT_EQ(store->MinDistance(4, 4), std::optional<uint32_t>(0));
  auto row = store->DecodeLinRow(0);
  ASSERT_TRUE(row.ok());
  EXPECT_TRUE(row->entries.empty());
}

TEST_P(StoreReaderTest, PlainStoreDistancesAreZero) {
  // A plain store (no DIST column) still answers MinDistance: connected
  // pairs report 0 — the paper's plain index simply cannot rank.
  Digraph g(3);
  g.AddEdge(0, 1);
  g.AddEdge(1, 2);
  auto cover = twohop::BuildCover(g);
  ASSERT_TRUE(cover.ok());
  auto store = Store(*cover, false);
  ASSERT_TRUE(store.ok()) << store.status();
  auto d = store->MinDistance(0, 2);
  ASSERT_TRUE(d.has_value());
  EXPECT_EQ(*d, 0u);
}

TEST_P(StoreReaderTest, EndToEndWithBuiltIndex) {
  collection::Collection c = hopi::testing::SmallDblp(30, 21);
  auto index = BuildIndex(&c);
  ASSERT_TRUE(index.ok());
  auto store = Store(index->cover(), false);
  ASSERT_TRUE(store.ok()) << store.status();
  Rng rng(3);
  for (int i = 0; i < 500; ++i) {
    NodeId u = static_cast<NodeId>(rng.NextBounded(c.NumElements()));
    NodeId v = static_cast<NodeId>(rng.NextBounded(c.NumElements()));
    EXPECT_EQ(store->TestConnection(u, v), index->IsReachable(u, v));
  }
}

// ---- the error taxonomy, for the mmap and buffered opens ----

class StoreErrorTest : public ::testing::Test {
 protected:
  void TearDown() override { std::remove(path_.c_str()); }

  /// Opens path_ both ways; `check` must hold for each status.
  template <typename Check>
  void ExpectBothOpens(Check check) {
    for (bool prefer_mmap : {true, false}) {
      auto store = MappedLinLoutStore::Open(path_, {.prefer_mmap = prefer_mmap});
      EXPECT_TRUE(check(store.status()))
          << (prefer_mmap ? "mmap: " : "buffered: ") << store.status();
    }
  }

  void WriteRaw(const std::string& bytes) {
    FILE* f = std::fopen(path_.c_str(), "wb");
    ASSERT_NE(f, nullptr);
    ASSERT_EQ(std::fwrite(bytes.data(), 1, bytes.size(), f), bytes.size());
    std::fclose(f);
  }

  std::string path_ = ::testing::TempDir() + "hopi_store_error_test.bin";
};

TEST_F(StoreErrorTest, MissingFileIsIOError) {
  path_ = "/nonexistent/dir/f.bin";
  ExpectBothOpens([](const Status& s) { return s.IsIOError(); });
}

TEST_F(StoreErrorTest, BadMagicIsCorruption) {
  WriteRaw("NOTHOPI!xxxxxxxxxxxxxxxxxxxxxxxxxxx");
  ExpectBothOpens([](const Status& s) { return s.IsCorruption(); });
}

TEST_F(StoreErrorTest, TruncatedHeaderDetected) {
  WriteRaw("HOPI");  // magic only, no version/flags/sections
  ExpectBothOpens([](const Status& s) { return s.IsCorruption(); });
}

TEST_F(StoreErrorTest, StaleFormatVersionIsUnsupported) {
  ASSERT_TRUE(WriteLinLoutFile(SampleCover(false, 23), false, path_).ok());
  // Patch the version field (bytes 4..8) to a future version.
  uint32_t future_version = 99;
  PatchFile(path_, 4, &future_version, sizeof(future_version));
  ExpectBothOpens([](const Status& s) {
    return s.IsUnsupported() && s.message().find("99") != std::string::npos;
  });
}

TEST_F(StoreErrorTest, V2FileIsUnsupported) {
  // The v2 layout (header + row counts + bare row triplets) is no
  // longer read: it fails like any other version this build does not
  // know, with a message that says how to get a readable file.
  std::string v2(kMagic, sizeof(kMagic));
  uint32_t header[2] = {2, kFlagDistance};
  uint64_t counts[2] = {1, 0};
  uint32_t row[3] = {1, 2, 1};
  v2.append(reinterpret_cast<const char*>(header), sizeof(header));
  v2.append(reinterpret_cast<const char*>(counts), sizeof(counts));
  v2.append(reinterpret_cast<const char*>(row), sizeof(row));
  WriteRaw(v2);
  ExpectBothOpens([](const Status& s) {
    return s.IsUnsupported() &&
           s.message().find("version 2") != std::string::npos &&
           s.message().find("WriteLinLoutFile") != std::string::npos;
  });
}

TEST_F(StoreErrorTest, OldV1LayoutReportsVersionError) {
  // A v1 file started with the 8-byte magic "HOPILL01": the first four
  // bytes match the current magic and the next four parse as a bogus
  // version, so stale files fail clearly instead of being misread.
  WriteRaw(std::string("HOPILL01") + std::string(24, '\0'));
  ExpectBothOpens([](const Status& s) { return s.IsUnsupported(); });
}

TEST_F(StoreErrorTest, UnknownHeaderFlagsAreCorruption) {
  for (uint32_t version : {kFormatVersion, kFormatVersionV4}) {
    ASSERT_TRUE(WriteLinLoutFile(SampleCover(false, 29), false, path_,
                                 {.format_version = version})
                    .ok());
    // Set a reserved flag bit (bytes 8..12 hold the flags).
    uint32_t bogus_flags = 1u << 7;
    PatchFile(path_, 8, &bogus_flags, sizeof(bogus_flags));
    ExpectBothOpens([](const Status& s) { return s.IsCorruption(); });
  }
}

TEST_F(StoreErrorTest, BogusSectionLengthIsCorruption) {
  ASSERT_TRUE(WriteLinLoutFile(SampleCover(false, 37), false, path_,
                               {.format_version = kFormatVersion})
                  .ok());
  // Patch the first section's length (bytes 24..32) to an absurd value:
  // the readers must fail with Corruption, not trust the size.
  uint64_t bogus_length = UINT64_MAX / 2;
  PatchFile(path_, 24, &bogus_length, sizeof(bogus_length));
  ExpectBothOpens([](const Status& s) { return s.IsCorruption(); });
}

TEST_F(StoreErrorTest, TruncatedRowsDetected) {
  ASSERT_TRUE(WriteLinLoutFile(SampleCover(false, 19), false, path_).ok());
  long size = static_cast<long>(hopi::testing::ReadFileBytes(path_).size());
  ASSERT_TRUE(::truncate(path_.c_str(), size - 8) == 0);
  ExpectBothOpens([](const Status& s) { return s.IsCorruption(); });
}

TEST_F(StoreErrorTest, WriterRejectsUnknownVersions) {
  for (uint32_t version : {2u, 5u}) {
    Status s = WriteLinLoutFile(SampleCover(false), false, path_,
                                {.format_version = version});
    EXPECT_TRUE(s.IsInvalidArgument()) << s;
  }
  FILE* f = std::fopen(path_.c_str(), "rb");
  EXPECT_EQ(f, nullptr);  // nothing written
  if (f != nullptr) std::fclose(f);
}

// ---- crash safety and the v3 on-disk format ----

class StorageFormatTest : public ::testing::Test {
 protected:
  void TearDown() override {
    std::remove(path_.c_str());
    std::remove((path_ + ".tmp").c_str());
  }

  /// Fresh v3 file at path_; returns the cover it stores.
  twohop::TwoHopCover WriteSample(bool with_distance, uint64_t seed) {
    twohop::TwoHopCover cover = SampleCover(with_distance, seed);
    EXPECT_TRUE(WriteLinLoutFile(cover, with_distance, path_,
                                 {.format_version = kFormatVersion})
                    .ok());
    return cover;
  }

  std::string path_ = ::testing::TempDir() + "hopi_format_test.bin";
};

TEST_F(StorageFormatTest, AtomicWriterLeavesNoTempFile) {
  WriteSample(true, 43);
  FILE* tmp = std::fopen((path_ + ".tmp").c_str(), "rb");
  EXPECT_EQ(tmp, nullptr);
  if (tmp != nullptr) std::fclose(tmp);
}

TEST_F(StorageFormatTest, RewriteReplacesExistingFileAtomically) {
  WriteSample(false, 43);
  twohop::TwoHopCover second = WriteSample(true, 47);  // overwrite in place
  auto loaded = MappedLinLoutStore::Open(path_);
  ASSERT_TRUE(loaded.ok()) << loaded.status();
  EXPECT_TRUE(loaded->with_distance());
  EXPECT_EQ(loaded->NumEntries(), second.Size());
}

TEST_F(StorageFormatTest, FailedWriteReportsIOErrorAndWritesNothing) {
  Status s = WriteLinLoutFile(SampleCover(false, 43), false,
                              "/nonexistent/dir/f.bin");
  EXPECT_TRUE(s.IsIOError()) << s;
}

TEST_F(StorageFormatTest, InspectReportsVersionAndOrderedSections) {
  WriteSample(true, 43);
  auto info = InspectFile(path_);
  ASSERT_TRUE(info.ok()) << info.status();
  EXPECT_EQ(info->version, kFormatVersion);
  EXPECT_EQ(info->flags, kFlagDistance);
  uint64_t prev_end = kHeaderBytes;
  for (size_t s = 0; s < kNumSections; ++s) {
    EXPECT_GE(info->sections[s].offset, prev_end) << "section " << s;
    EXPECT_EQ(info->sections[s].offset % 8, 0u) << "section " << s;
    prev_end = info->sections[s].offset + info->sections[s].length;
  }
  EXPECT_LE(prev_end, info->file_bytes - kTrailerBytes);
}

TEST_F(StorageFormatTest, TruncationAtEverySectionBoundaryIsCorruption) {
  WriteSample(true, 43);
  auto info = InspectFile(path_);
  ASSERT_TRUE(info.ok()) << info.status();
  // Every boundary of the file: header end, each section's begin and
  // end, and mid-trailer. A torn write stopping at any of them must
  // read as Corruption from both open modes — never a crash or garbage.
  std::vector<uint64_t> boundaries = {0, 4, kHeaderBytes,
                                      info->file_bytes - 4};
  for (const SectionRange& s : info->sections) {
    boundaries.push_back(s.offset);
    boundaries.push_back(s.offset + s.length);
  }
  std::vector<std::byte> image = hopi::testing::ReadFileBytes(path_);
  for (uint64_t cut : boundaries) {
    ASSERT_LT(cut, info->file_bytes);
    FILE* f = std::fopen(path_.c_str(), "wb");
    ASSERT_NE(f, nullptr);
    if (cut > 0) {
      ASSERT_EQ(std::fwrite(image.data(), 1, cut, f), cut);
    }
    std::fclose(f);
    auto buffered = MappedLinLoutStore::Open(path_, {.prefer_mmap = false});
    EXPECT_TRUE(buffered.status().IsCorruption())
        << "buffered, cut at " << cut << ": " << buffered.status();
    auto mapped = MappedLinLoutStore::Open(path_);
    EXPECT_TRUE(mapped.status().IsCorruption())
        << "mapped, cut at " << cut << ": " << mapped.status();
  }
}

TEST_F(StorageFormatTest, BitFlipAnywhereIsCorruption) {
  WriteSample(false, 53);
  auto info = InspectFile(path_);
  ASSERT_TRUE(info.ok());
  // Flip one bit in the middle of the row data: only the trailing
  // checksum can catch this (the sections still parse).
  uint64_t victim = info->sections[kLinRows].offset + 5;
  std::vector<std::byte> image = hopi::testing::ReadFileBytes(path_);
  unsigned char flipped =
      static_cast<unsigned char>(image[victim]) ^ 0x10;
  PatchFile(path_, static_cast<long>(victim), &flipped, 1);
  auto buffered = MappedLinLoutStore::Open(path_, {.prefer_mmap = false});
  EXPECT_TRUE(buffered.status().IsCorruption()) << buffered.status();
  auto mapped = MappedLinLoutStore::Open(path_);
  EXPECT_TRUE(mapped.status().IsCorruption()) << mapped.status();
}

// ---- the mmap-backed reader ----

class MappedStoreTest : public StorageFormatTest {};

TEST_F(MappedStoreTest, MappedReaderAnswersLikeTheCover) {
  twohop::TwoHopCover cover = WriteSample(true, 59);
  auto mapped = MappedLinLoutStore::Open(path_);
  ASSERT_TRUE(mapped.ok()) << mapped.status();
  EXPECT_TRUE(mapped->mapped());  // POSIX CI: the real mmap path
  EXPECT_EQ(mapped->NumEntries(), cover.Size());
  EXPECT_TRUE(mapped->with_distance());
  twohop::IndexedCover indexed(cover);
  for (NodeId u = 0; u < cover.NumNodes(); ++u) {
    for (NodeId v = 0; v < cover.NumNodes(); ++v) {
      EXPECT_EQ(mapped->TestConnection(u, v), cover.IsConnected(u, v))
          << u << "->" << v;
      EXPECT_EQ(mapped->MinDistance(u, v), cover.Distance(u, v))
          << u << "->" << v;
    }
    EXPECT_EQ(mapped->Descendants(u), indexed.Descendants(u)) << u;
    EXPECT_EQ(mapped->Ancestors(u), indexed.Ancestors(u)) << u;
  }
}

TEST_F(MappedStoreTest, SpansMatchCoverLabels) {
  twohop::TwoHopCover cover = WriteSample(true, 61);
  auto mapped = MappedLinLoutStore::Open(path_);
  ASSERT_TRUE(mapped.ok()) << mapped.status();
  for (NodeId u = 0; u < cover.NumNodes(); ++u) {
    auto lin = mapped->LinSpan(u);
    EXPECT_EQ(std::vector<twohop::LabelEntry>(lin.begin(), lin.end()),
              cover.In(u));
    auto lout = mapped->LoutSpan(u);
    EXPECT_EQ(std::vector<twohop::LabelEntry>(lout.begin(), lout.end()),
              cover.Out(u));
  }
  EXPECT_TRUE(mapped->LinSpan(1u << 30).empty());  // out-of-range node
}

TEST_F(MappedStoreTest, BufferedFallbackAnswersIdentically) {
  WriteSample(true, 67);
  auto mapped = MappedLinLoutStore::Open(path_);
  ASSERT_TRUE(mapped.ok()) << mapped.status();
  auto fallback = MappedLinLoutStore::Open(path_, {.prefer_mmap = false});
  ASSERT_TRUE(fallback.ok()) << fallback.status();
  EXPECT_FALSE(fallback->mapped());
  twohop::TwoHopCover cover = SampleCover(true, 67);
  for (NodeId u = 0; u < cover.NumNodes(); ++u) {
    for (NodeId v = 0; v < cover.NumNodes(); v += 2) {
      EXPECT_EQ(fallback->TestConnection(u, v), mapped->TestConnection(u, v));
      EXPECT_EQ(fallback->MinDistance(u, v), mapped->MinDistance(u, v));
    }
    EXPECT_EQ(fallback->Descendants(u), mapped->Descendants(u));
  }
}

// ---- the v4 block codec ----

TEST(CompressCodecTest, VarintRoundTripsBoundaryValues) {
  const uint32_t values[] = {0,       1,          127,        128,
                             16383,   16384,      2097151,    2097152,
                             1u << 28, (1u << 28) - 1, 0xFFFFFFFE, 0xFFFFFFFF};
  std::vector<std::byte> buf;
  for (uint32_t v : values) PutVarint32(&buf, v);
  const std::byte* p = buf.data();
  const std::byte* end = buf.data() + buf.size();
  for (uint32_t expect : values) {
    uint32_t got = 0;
    ASSERT_TRUE(GetVarint32(&p, end, &got));
    EXPECT_EQ(got, expect);
  }
  EXPECT_EQ(p, end);  // exact consumption
}

TEST(CompressCodecTest, VarintRejectsTruncationAndOverflow) {
  std::vector<std::byte> buf;
  PutVarint32(&buf, 0xFFFFFFFF);
  ASSERT_EQ(buf.size(), 5u);
  const std::byte* p = buf.data();
  uint32_t got = 0;
  EXPECT_FALSE(GetVarint32(&p, buf.data() + 4, &got));  // truncated
  // Six continuation bytes: more than any u32 needs.
  std::vector<std::byte> overlong(6, std::byte{0x80});
  overlong.push_back(std::byte{0x01});
  p = overlong.data();
  EXPECT_FALSE(GetVarint32(&p, overlong.data() + overlong.size(), &got));
  // A 5-byte varint whose high bits overflow 32 bits.
  std::vector<std::byte> wide = {std::byte{0xFF}, std::byte{0xFF},
                                 std::byte{0xFF}, std::byte{0xFF},
                                 std::byte{0x7F}};
  p = wide.data();
  EXPECT_FALSE(GetVarint32(&p, wide.data() + wide.size(), &got));
}

/// Owns row storage and hands out the spans EncodeLabelRows wants.
struct RowSet {
  std::vector<uint32_t> keys;
  std::vector<std::vector<twohop::LabelEntry>> rows;

  std::vector<LabelRowRef> Refs() const {
    std::vector<LabelRowRef> refs;
    for (size_t i = 0; i < keys.size(); ++i) {
      refs.push_back({keys[i], rows[i]});
    }
    return refs;
  }

  /// The rows the decoder must reproduce: every non-empty input row.
  std::map<uint32_t, std::vector<twohop::LabelEntry>> NonEmpty() const {
    std::map<uint32_t, std::vector<twohop::LabelEntry>> out;
    for (size_t i = 0; i < keys.size(); ++i) {
      if (!rows[i].empty()) out[keys[i]] = rows[i];
    }
    return out;
  }
};

/// Random sorted rows: keys strictly ascending with gaps, centers
/// strictly ascending with occasional huge gaps (the delta encoder's
/// worst case), a sprinkle of empty and singleton rows.
RowSet RandomRows(uint64_t seed, size_t num_rows, bool with_distance) {
  Rng rng(seed);
  RowSet set;
  uint32_t key = 0;
  for (size_t i = 0; i < num_rows; ++i) {
    key += 1 + static_cast<uint32_t>(rng.NextBounded(9));
    std::vector<twohop::LabelEntry> row;
    uint64_t count = rng.NextBounded(13);  // 0 => empty row
    uint32_t center = static_cast<uint32_t>(rng.NextBounded(50));
    for (uint64_t e = 0; e < count; ++e) {
      uint32_t dist =
          with_distance ? static_cast<uint32_t>(rng.NextBounded(8)) : 0;
      row.push_back({center, dist});
      uint64_t gap = rng.NextBounded(100) == 0
                         ? 1u << 24  // adversarial gap
                         : 1 + rng.NextBounded(20);
      if (center > 0xF0000000) break;  // keep centers in range
      center += static_cast<uint32_t>(gap);
    }
    set.keys.push_back(key);
    set.rows.push_back(std::move(row));
  }
  return set;
}

/// Decodes every block of `section` and splices the rows back together.
std::map<uint32_t, std::vector<twohop::LabelEntry>> DecodeAll(
    const EncodedLabelSection& section, bool with_distance) {
  std::map<uint32_t, std::vector<twohop::LabelEntry>> out;
  for (const V4BlockEntry& block : section.blocks) {
    auto decoded = DecodeLabelBlock(section.blob, section.dir, block,
                                    with_distance, "test");
    EXPECT_TRUE(decoded.ok()) << decoded.status();
    if (!decoded.ok()) continue;
    for (size_t r = 0; r < decoded->NumRows(); ++r) {
      auto row = decoded->Row(r);
      out[decoded->row_keys[r]] = {row.begin(), row.end()};
    }
  }
  return out;
}

TEST(CompressCodecTest, RandomRowsRoundTripAcrossBlockSizes) {
  const CompressOptions kShapes[] = {
      {},                    // defaults: one-page blocks
      {256, 64},             // many small blocks
      {1, 1},                // degenerate: one row per block
      {1 << 20, 1 << 20},    // everything in one block
  };
  for (uint64_t seed : {1u, 2u, 3u, 4u, 5u}) {
    for (bool with_distance : {false, true}) {
      RowSet set = RandomRows(seed, 60, with_distance);
      for (const CompressOptions& options : kShapes) {
        EncodedLabelSection section =
            EncodeLabelRows(set.Refs(), with_distance, options);
        auto expect = set.NonEmpty();
        // The dir carries exactly the non-empty rows, in key order.
        ASSERT_EQ(section.dir.size(), expect.size());
        // Blocks tile the dir and the blob exactly.
        uint64_t next_dir = 0, next_byte = 0;
        for (const V4BlockEntry& block : section.blocks) {
          EXPECT_EQ(block.first_dir, next_dir);
          EXPECT_EQ(block.blob_offset, next_byte);
          EXPECT_GE(block.num_rows, 1u);
          next_dir += block.num_rows;
          next_byte += block.blob_bytes;
        }
        EXPECT_EQ(next_dir, section.dir.size());
        EXPECT_EQ(next_byte, section.blob.size());
        EXPECT_EQ(DecodeAll(section, with_distance), expect)
            << "seed " << seed << " dist " << with_distance << " target "
            << options.target_block_bytes;
      }
    }
  }
}

TEST(CompressCodecTest, EmptySingletonAndAdversarialRows) {
  std::vector<twohop::LabelEntry> empty;
  std::vector<twohop::LabelEntry> singleton = {{7, 1}};
  // First center raw at the u32 ceiling, then the adversarial re-seed.
  std::vector<twohop::LabelEntry> extremes = {{0, 0}, {0xFFFFFFFE, 3}};
  std::vector<LabelRowRef> rows = {
      {1, empty}, {2, singleton}, {9, extremes}, {10, singleton}};
  EncodedLabelSection section = EncodeLabelRows(rows, true, {});
  ASSERT_EQ(section.dir.size(), 3u);  // empty row dropped
  auto decoded = DecodeAll(section, true);
  EXPECT_EQ(decoded[2], singleton);
  EXPECT_EQ(decoded[9], extremes);
  EXPECT_EQ(decoded[10], singleton);
  // No rows at all: a legal, completely empty section.
  EncodedLabelSection none = EncodeLabelRows({}, true, {});
  EXPECT_TRUE(none.dir.empty());
  EXPECT_TRUE(none.blocks.empty());
  EXPECT_TRUE(none.blob.empty());
}

TEST(CompressCodecTest, SharedPrefixesCompressSimilarRows) {
  // 32 rows, each sharing a long prefix with the first: the clustering
  // pass must store the prefix once, making v4 beat raw encoding by a
  // wide margin.
  std::vector<std::vector<twohop::LabelEntry>> storage;
  std::vector<LabelRowRef> rows;
  for (uint32_t r = 0; r < 32; ++r) {
    std::vector<twohop::LabelEntry> row;
    for (uint32_t e = 0; e < 64; ++e) row.push_back({e * 3, 1});
    row.push_back({1000 + r, 2});  // one private suffix entry
    storage.push_back(std::move(row));
  }
  for (uint32_t r = 0; r < 32; ++r) rows.push_back({r, storage[r]});
  EncodedLabelSection section = EncodeLabelRows(rows, true, {});
  size_t raw_bytes = (32 * 65) * sizeof(twohop::LabelEntry);
  EXPECT_LT(section.blob.size() * 4, raw_bytes);  // > 4x on this shape
  EXPECT_EQ(DecodeAll(section, true).size(), 32u);
}

TEST(CompressCodecTest, CorruptedBlockBytesAreCorruptionNeverACrash) {
  RowSet set = RandomRows(77, 40, true);
  EncodedLabelSection section = EncodeLabelRows(set.Refs(), true, {256, 64});
  ASSERT_FALSE(section.blocks.empty());
  for (size_t b = 0; b < section.blocks.size(); ++b) {
    const V4BlockEntry& block = section.blocks[b];
    for (uint64_t bit : {0u, 7u, 13u}) {
      EncodedLabelSection copy = section;
      uint64_t victim = block.blob_offset + bit % block.blob_bytes;
      copy.blob[victim] ^= std::byte{0x40};
      auto decoded =
          DecodeLabelBlock(copy.blob, copy.dir, block, true, "test");
      EXPECT_TRUE(decoded.status().IsCorruption())
          << "block " << b << " bit " << bit << ": " << decoded.status();
    }
  }
  // A truncated blob span must fail bounds validation, not read past.
  const V4BlockEntry& last = section.blocks.back();
  std::span<const std::byte> short_blob(section.blob.data(),
                                        section.blob.size() - 1);
  auto decoded = DecodeLabelBlock(short_blob, section.dir, last, true, "test");
  EXPECT_TRUE(decoded.status().IsCorruption()) << decoded.status();
}


// ---- the v4 on-disk format ----

class StorageFormatV4Test : public StorageFormatTest {
 protected:
  /// Fresh v4 file at path_ (tiny blocks so even the test cover spans
  /// several); returns the cover it stores.
  twohop::TwoHopCover WriteSampleV4(bool with_distance, uint64_t seed) {
    twohop::TwoHopCover cover = SampleCover(with_distance, seed);
    EXPECT_TRUE(WriteLinLoutFile(cover, with_distance, path_,
                                 SmallBlocks(kFormatVersionV4))
                    .ok());
    return cover;
  }
};

TEST_F(StorageFormatV4Test, InspectReportsV4AndItsTwelveSections) {
  WriteSampleV4(true, 43);
  auto info = InspectFile(path_);
  ASSERT_TRUE(info.ok()) << info.status();
  EXPECT_EQ(info->version, kFormatVersionV4);
  EXPECT_EQ(info->flags, kFlagDistance);
  ASSERT_EQ(info->sections.size(), size_t{kNumSectionsV4});
  uint64_t prev_end = kHeaderBytesV4;
  for (size_t s = 0; s < info->sections.size(); ++s) {
    EXPECT_GE(info->sections[s].offset, prev_end) << "section " << s;
    EXPECT_EQ(info->sections[s].offset % 8, 0u) << "section " << s;
    prev_end = info->sections[s].offset + info->sections[s].length;
  }
  EXPECT_LE(prev_end, info->file_bytes - kTrailerBytes);
}

TEST_F(StorageFormatV4Test, WriterIsDeterministic) {
  twohop::TwoHopCover cover = WriteSampleV4(true, 47);
  std::vector<std::byte> first = hopi::testing::ReadFileBytes(path_);
  ASSERT_TRUE(
      WriteLinLoutFile(cover, true, path_, SmallBlocks(kFormatVersionV4))
          .ok());
  EXPECT_EQ(hopi::testing::ReadFileBytes(path_), first);
}

TEST_F(StorageFormatV4Test, MappedV4DecodesBitIdenticalLabels) {
  twohop::TwoHopCover cover = WriteSampleV4(true, 61);
  auto mapped = MappedLinLoutStore::Open(path_);
  ASSERT_TRUE(mapped.ok()) << mapped.status();
  EXPECT_TRUE(mapped->compressed());
  EXPECT_EQ(mapped->format_version(), kFormatVersionV4);
  EXPECT_EQ(mapped->NumEntries(), cover.Size());
  ASSERT_TRUE(mapped->VerifyBlocks().ok());
  // Raw spans are a v3 affordance; a compressed store has none.
  EXPECT_TRUE(mapped->LinSpan(0).empty());
  // Out-of-range nodes decode to an engaged empty row.
  auto absent = mapped->DecodeLinRow(1u << 30);
  ASSERT_TRUE(absent.ok());
  EXPECT_TRUE(absent->entries.empty());
}

TEST_F(StorageFormatV4Test, MappedV4AnswersEveryQueryLikeV3) {
  twohop::TwoHopCover cover = WriteSampleV4(true, 67);
  auto v4 = MappedLinLoutStore::Open(path_);
  ASSERT_TRUE(v4.ok()) << v4.status();
  std::string v3_path = path_ + ".v3";
  ASSERT_TRUE(WriteLinLoutFile(cover, true, v3_path,
                               {.format_version = kFormatVersion})
                  .ok());
  auto v3 = MappedLinLoutStore::Open(v3_path);
  std::remove(v3_path.c_str());  // the mapping outlives the name
  ASSERT_TRUE(v3.ok()) << v3.status();
  for (NodeId u = 0; u < cover.NumNodes(); ++u) {
    for (NodeId v = 0; v < cover.NumNodes(); ++v) {
      EXPECT_EQ(v4->TestConnection(u, v), v3->TestConnection(u, v))
          << u << "->" << v;
      EXPECT_EQ(v4->MinDistance(u, v), v3->MinDistance(u, v))
          << u << "->" << v;
    }
    EXPECT_EQ(v4->Descendants(u), v3->Descendants(u)) << u;
    EXPECT_EQ(v4->Ancestors(u), v3->Ancestors(u)) << u;
  }
}

TEST_F(StorageFormatV4Test, CompressionBeatsRawOnRedundantCovers) {
  // The paper-shaped workload: a sizable DAG whose LIN/LOUT rows share
  // long prefixes. v4 must cut bytes/entry by well over the 2x the
  // acceptance bar asks for (the bench reports the exact ratio).
  Digraph g = hopi::testing::RandomDag(400, 3.0, 97);
  twohop::CoverBuildOptions cover_options;
  cover_options.with_distance = true;
  auto cover = twohop::BuildCover(g, cover_options);
  ASSERT_TRUE(cover.ok());
  ASSERT_TRUE(WriteLinLoutFile(*cover, true, path_,
                               {.format_version = kFormatVersion})
                  .ok());
  uint64_t v3_bytes = hopi::testing::ReadFileBytes(path_).size();
  ASSERT_TRUE(WriteLinLoutFile(*cover, true, path_,
                               {.format_version = kFormatVersionV4})
                  .ok());
  uint64_t v4_bytes = hopi::testing::ReadFileBytes(path_).size();
  EXPECT_LE(v4_bytes * 2, v3_bytes)
      << "v3 " << v3_bytes << "B vs v4 " << v4_bytes << "B for "
      << cover->Size() << " entries";
  auto mapped = MappedLinLoutStore::Open(path_);
  ASSERT_TRUE(mapped.ok()) << mapped.status();
  EXPECT_EQ(mapped->NumEntries(), cover->Size());
}

TEST_F(StorageFormatV4Test, TruncationAtEveryV4BoundaryIsCorruption) {
  WriteSampleV4(true, 43);
  auto info = InspectFile(path_);
  ASSERT_TRUE(info.ok()) << info.status();
  std::vector<uint64_t> boundaries = {0, 4, kHeaderBytesV4,
                                      info->file_bytes - 4};
  for (const SectionRange& s : info->sections) {
    boundaries.push_back(s.offset);
    boundaries.push_back(s.offset + s.length);
  }
  std::vector<std::byte> image = hopi::testing::ReadFileBytes(path_);
  for (uint64_t cut : boundaries) {
    ASSERT_LT(cut, info->file_bytes);
    FILE* f = std::fopen(path_.c_str(), "wb");
    ASSERT_NE(f, nullptr);
    if (cut > 0) {
      ASSERT_EQ(std::fwrite(image.data(), 1, cut, f), cut);
    }
    std::fclose(f);
    auto buffered = MappedLinLoutStore::Open(path_, {.prefer_mmap = false});
    EXPECT_TRUE(buffered.status().IsCorruption())
        << "buffered, cut at " << cut << ": " << buffered.status();
    auto mapped = MappedLinLoutStore::Open(path_);
    EXPECT_TRUE(mapped.status().IsCorruption())
        << "mapped, cut at " << cut << ": " << mapped.status();
    // Even the lazy open must catch a torn file: everything before the
    // blobs is covered by the metadata checksum, the rest by sizes.
    auto lazy =
        MappedLinLoutStore::Open(path_, {.verify_file_checksum = false});
    EXPECT_FALSE(lazy.ok()) << "lazy, cut at " << cut;
  }
}

TEST_F(StorageFormatV4Test, LazyOpenDefersBlobChecksToDecodeTime) {
  WriteSampleV4(true, 53);
  auto pristine = MappedLinLoutStore::Open(path_);
  ASSERT_TRUE(pristine.ok());
  // Flip one bit inside the LIN blob (the payload only the per-block
  // CRCs cover).
  auto info = InspectFile(path_);
  ASSERT_TRUE(info.ok());
  const SectionRange& blob = info->sections[kV4LinBlob];
  ASSERT_GT(blob.length, 0u);
  FILE* f = std::fopen(path_.c_str(), "rb+");
  ASSERT_NE(f, nullptr);
  std::fseek(f, static_cast<long>(blob.offset + blob.length / 2), SEEK_SET);
  int c = std::fgetc(f);
  ASSERT_NE(c, EOF);
  std::fseek(f, static_cast<long>(blob.offset + blob.length / 2), SEEK_SET);
  std::fputc(c ^ 0x08, f);
  std::fclose(f);
  // Verified open refuses outright (whole-file checksum)...
  auto verified = MappedLinLoutStore::Open(path_);
  EXPECT_TRUE(verified.status().IsCorruption()) << verified.status();
  // ...the lazy open succeeds (metadata is intact) and the damage
  // surfaces as Corruption at decode time — never a crash, and probes
  // that touch the bad block degrade to "unreachable".
  auto lazy = MappedLinLoutStore::Open(path_, {.verify_file_checksum = false});
  ASSERT_TRUE(lazy.ok()) << lazy.status();
  EXPECT_TRUE(lazy->VerifyBlocks().IsCorruption());
  for (NodeId u = 0; u < 40; ++u) {
    for (NodeId v = 0; v < 40; v += 3) {
      lazy->TestConnection(u, v);  // must not crash
    }
  }
  // Metadata damage, by contrast, fails even the lazy open.
  std::vector<std::byte> image = hopi::testing::ReadFileBytes(path_);
  const SectionRange& dir = info->sections[kV4LinDir];
  image[dir.offset] ^= std::byte{0x01};
  FILE* w = std::fopen(path_.c_str(), "wb");
  ASSERT_NE(w, nullptr);
  ASSERT_EQ(std::fwrite(image.data(), 1, image.size(), w), image.size());
  std::fclose(w);
  auto lazy2 = MappedLinLoutStore::Open(path_, {.verify_file_checksum = false});
  EXPECT_TRUE(lazy2.status().IsCorruption()) << lazy2.status();
}

}  // namespace
}  // namespace hopi::storage
