/// Seeded mutation fuzzing of the persistence decoders, which read bytes
/// from disk: the snapshot section decoders (statistics with its fan-out
/// tail, dictionary, catalog, predicate mappings), the WAL triple-batch
/// payload, the snapshot framing (DecodeSnapshot) and the WAL reader
/// (ReadWalFile over MemEnv). Inputs are real encodings mutated with bit
/// flips, byte overwrites, deletions, truncations, duplicated spans and
/// "interesting" 32/64-bit integers written over length and count fields,
/// under a fixed seed. For the framed formats most mutants get their CRCs
/// re-stamped afterwards, so the mutation gets past the checksum and
/// reaches the section and payload decoders. Every decoder must return a
/// Status — ok or an error — and never throw, crash, hang or allocate
/// without bound. The iteration counts are fixed so the suite stays fast;
/// the sanitizer builds run the same cases under ASan/UBSan.

#include <algorithm>
#include <cstddef>
#include <cstdint>
#include <iterator>
#include <memory>
#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "opt/statistics.h"
#include "persist/coding.h"
#include "persist/crc32c.h"
#include "persist/env.h"
#include "persist/manager.h"
#include "persist/serializer.h"
#include "persist/snapshot.h"
#include "persist/wal.h"
#include "rdf/graph.h"
#include "schema/coloring_mapping.h"
#include "schema/hash_mapping.h"
#include "sql/catalog.h"
#include "store/rdf_store.h"
#include "util/random.h"

namespace rdfrel::persist {
namespace {

using rdf::Term;

constexpr uint64_t kSeed = 20261018;
constexpr int kPayloadMutants = 20000;
constexpr int kSnapshotMutants = 10000;
constexpr int kWalMutants = 20000;

/// A small graph with every term kind, a typed and a language-tagged
/// literal, and a predicate with a skewed fan-out.
rdf::Graph SmallGraph() {
  rdf::Graph g;
  auto iri = [](const std::string& s) { return Term::Iri("http://ex/" + s); };
  for (int i = 0; i < 12; ++i) {
    g.Add({iri("s" + std::to_string(i)), iri("memberOf"),
           iri("d" + std::to_string(i % 3))});
  }
  g.Add({iri("s0"), iri("name"), Term::LangLiteral("Grüße", "de")});
  g.Add({iri("s1"), iri("age"),
         Term::TypedLiteral("42", "http://www.w3.org/2001/XMLSchema#int")});
  g.Add({Term::BlankNode("b1"), iri("knows"), iri("s2")});
  g.Add({iri("s2"), iri("label"), Term::Literal("a \"quoted\"\nline")});
  return g;
}

std::vector<rdf::Triple> SampleTriples() {
  auto decoded = SmallGraph().DecodeAll();
  return decoded.ok() ? *decoded : std::vector<rdf::Triple>{};
}

/// Writes \p v little-endian over \p width bytes at \p pos (clipped).
void Overwrite(std::string* text, size_t pos, uint64_t v, size_t width) {
  for (size_t i = 0; i < width && pos + i < text->size(); ++i) {
    (*text)[pos + i] = static_cast<char>((v >> (8 * i)) & 0xFFu);
  }
}

/// Applies 1-4 stacked byte-level mutations to \p text.
std::string Mutate(Random& rng, std::string text) {
  static const uint64_t kInteresting[] = {
      0,          1,           2,          7,          8,
      16,         0x7F,        0xFF,       0x100,      0xFFFF,
      0x10000,    0x7FFFFFFF,  0x80000000, 0xFFFFFFFF, 0x100000000ull,
      1ull << 40, 1ull << 62,  1ull << 63, ~0ull,      ~0ull - 1};
  const int rounds = 1 + static_cast<int>(rng.Uniform(4));
  for (int r = 0; r < rounds; ++r) {
    const size_t pos = text.empty() ? 0 : rng.Uniform(text.size() + 1);
    const size_t at = text.empty() ? 0 : pos % text.size();
    switch (rng.Uniform(7)) {
      case 0:  // flip one bit
        if (!text.empty()) {
          text[at] = static_cast<char>(text[at] ^ (1 << rng.Uniform(8)));
        }
        break;
      case 1:  // overwrite one byte with any value
        if (!text.empty()) text[at] = static_cast<char>(rng.Uniform(256));
        break;
      case 2:  // delete a span
        text.erase(pos, 1 + rng.Uniform(16));
        break;
      case 3:  // truncate
        text.resize(pos);
        break;
      case 4:  // duplicate a span
        if (!text.empty()) {
          text.insert(pos, text.substr(at, 1 + rng.Uniform(24)));
        }
        break;
      case 5:  // insert random bytes
        for (uint64_t n = 1 + rng.Uniform(8); n > 0; --n) {
          text.insert(pos, 1, static_cast<char>(rng.Uniform(256)));
        }
        break;
      default:  // an interesting u32/u64 over a length or count field
        Overwrite(&text, at,
                  kInteresting[rng.Uniform(std::size(kInteresting))],
                  rng.Bernoulli(0.5) ? 4 : 8);
        break;
    }
  }
  return text;
}

uint32_t LoadU32(const std::string& s, size_t pos) {
  uint32_t v = 0;
  for (size_t i = 0; i < 4; ++i) {
    v |= static_cast<uint32_t>(static_cast<unsigned char>(s[pos + i]))
         << (8 * i);
  }
  return v;
}

uint64_t LoadU64(const std::string& s, size_t pos) {
  uint64_t v = 0;
  for (size_t i = 0; i < 8; ++i) {
    v |= static_cast<uint64_t>(static_cast<unsigned char>(s[pos + i]))
         << (8 * i);
  }
  return v;
}

/// Recomputes every CRC of a (mutated) snapshot image wherever its framing
/// still parses: each section's CRC over its payload, then the file CRC
/// after the end marker (see snapshot.h for the layout).
void RestampSnapshot(std::string* file) {
  constexpr size_t kHeader = 16;  // magic 8 | version 4 | #sections 4
  if (file->size() < kHeader) return;
  const uint32_t sections = LoadU32(*file, 12);
  size_t pos = kHeader;
  for (uint32_t i = 0; i < sections; ++i) {
    if (file->size() - pos < 12) return;
    const uint64_t len = LoadU64(*file, pos + 4);
    if (len > file->size() - pos - 12 || file->size() - pos - 12 - len < 4) {
      return;
    }
    const std::string_view payload =
        std::string_view(*file).substr(pos + 12, len);
    Overwrite(file, pos + 12 + len, MaskCrc(Crc32c(payload)), 4);
    pos += 12 + len + 4;
  }
  if (file->size() - pos < 8) return;
  Overwrite(file, pos + 4,
            MaskCrc(Crc32c(std::string_view(*file).substr(0, pos))), 4);
}

/// Recomputes each frame's CRC of a (mutated) WAL image while its length
/// fields still parse (see wal.h for the layout).
void RestampWal(std::string* file) {
  constexpr size_t kHeader = 20;  // magic 8 | version 4 | start LSN 8
  size_t pos = kHeader;
  while (pos < file->size() && file->size() - pos >= 8) {
    const uint32_t len = LoadU32(*file, pos);
    if (len > file->size() - pos - 8) return;
    Overwrite(file, pos + 4,
              MaskCrc(Crc32c(std::string_view(*file).substr(pos + 8, len))),
              4);
    pos += 8 + len;
  }
}

/// Runs \p decode on every mutant, failing on an exception; returns how
/// many mutants decoded ok.
template <typename Decode>
int FuzzPayload(const char* what, const std::string& valid, Random& rng,
                int mutants, Decode decode) {
  int ok = 0;
  for (int i = 0; i < mutants; ++i) {
    const std::string mutant = Mutate(rng, valid);
    try {
      if (decode(mutant)) ++ok;
    } catch (const std::exception& e) {
      ADD_FAILURE() << what << " threw " << e.what() << " on mutant " << i;
      return ok;
    }
  }
  return ok;
}

bool DecodesCatalog(std::string_view payload) {
  sql::Catalog catalog;
  return DecodeCatalogInto(payload, &catalog).ok();
}

/// The catalog encoding of a table with every column type, NULLs and two
/// indexes (one on a column with NULLs).
std::string SampleCatalog() {
  sql::Catalog catalog;
  auto table = catalog.CreateTable(
      "t", sql::Schema({{"id", sql::ValueType::kInt64},
                        {"x", sql::ValueType::kDouble},
                        {"s", sql::ValueType::kInt64}}));
  EXPECT_TRUE(table.ok()) << table.status().ToString();
  if (!table.ok()) return "";
  for (int i = 0; i < 6; ++i) {
    sql::Row row{sql::Value::Int(i), sql::Value::Real(i * 0.5),
                 i % 3 == 0 ? sql::Value::Null() : sql::Value::Int(100 + i)};
    EXPECT_TRUE((*table)->Insert(row).ok());
  }
  EXPECT_TRUE((*table)->CreateIndex("t_id", "id").ok());
  EXPECT_TRUE((*table)->CreateIndex("t_s", "s").ok());
  return EncodeCatalog(catalog);
}

/// Hand-built one-table catalogs carrying VARCHAR's old code 3, which no
/// store ever wrote: as a column type (with a VARCHAR value in its row), and
/// as the tag of a value in a BIGINT column.
std::vector<std::string> VarcharCatalogs() {
  constexpr uint8_t kBigint = 1, kVarchar = 3;
  auto catalog = [](uint8_t column_type, uint8_t value_tag) {
    std::string out;
    PutU32(&out, 1);  // tables
    PutString(&out, "t");
    PutU32(&out, 2);  // columns
    PutString(&out, "id");
    PutU8(&out, kBigint);
    PutString(&out, "s");
    PutU8(&out, column_type);
    PutU32(&out, 0);  // indexes
    PutU64(&out, 1);  // rows
    PutU8(&out, kBigint);
    PutU64(&out, 7);
    PutU8(&out, value_tag);
    if (value_tag == kVarchar) {
      PutString(&out, "seven");
    } else {
      PutU64(&out, 8);
    }
    return out;
  };
  return {catalog(kVarchar, kVarchar), catalog(kBigint, kVarchar)};
}

std::vector<std::string> SampleMappings() {
  std::vector<std::string> out(2);
  EXPECT_TRUE(EncodeMapping(&out[0], schema::HashMapping(8, 2, 42)).ok());
  schema::ColoringResult res;
  res.assignment = {{3, 0}, {4, 1}, {5, 2}};
  res.punted = {6, 7};
  res.colors_used = 3;
  res.coverage = 0.75;
  EXPECT_TRUE(
      EncodeMapping(&out[1], schema::ColoringMapping(res, 4, 2, 9)).ok());
  return out;
}

TEST(PersistFuzzTest, SectionAndPayloadDecodersReturnStatus) {
  rdf::Graph g = SmallGraph();
  const std::vector<rdf::Triple> triples = SampleTriples();
  ASSERT_FALSE(triples.empty());
  // Statistics with and without top-k truncation; both carry the
  // per-predicate fan-out tail.
  const std::string stats_full =
      EncodeStatistics(opt::Statistics::FromGraph(g, 0));
  const std::string stats_top2 =
      EncodeStatistics(opt::Statistics::FromGraph(g, 2));
  const std::string dict = EncodeDictionary(g.dictionary());
  const std::string batch = EncodeTripleBatch(triples);
  const std::string catalog = SampleCatalog();
  ASSERT_FALSE(catalog.empty());
  const std::vector<std::string> mappings = SampleMappings();

  // The unmutated encodings decode.
  ASSERT_TRUE(DecodeStatistics(stats_full).ok());
  ASSERT_TRUE(DecodeDictionary(dict).ok());
  ASSERT_TRUE(DecodeTripleBatch(batch).ok());
  ASSERT_TRUE(DecodesCatalog(catalog));
  for (const auto& m : mappings) {
    ByteReader r(m);
    ASSERT_TRUE(DecodeMapping(&r).ok());
  }

  Random rng(kSeed);
  auto stats = [](std::string_view p) { return DecodeStatistics(p).ok(); };
  int ok = 0;
  ok += FuzzPayload("DecodeStatistics", stats_full, rng, kPayloadMutants,
                    stats);
  ok += FuzzPayload("DecodeStatistics", stats_top2, rng, kPayloadMutants,
                    stats);
  ok += FuzzPayload("DecodeDictionary", dict, rng, kPayloadMutants,
                    [](std::string_view p) { return DecodeDictionary(p).ok(); });
  ok += FuzzPayload("DecodeTripleBatch", batch, rng, kPayloadMutants,
                    [](std::string_view p) {
                      return DecodeTripleBatch(p).ok();
                    });
  ok += FuzzPayload("DecodeCatalogInto", catalog, rng, kPayloadMutants,
                    DecodesCatalog);
  for (const auto& varchar : VarcharCatalogs()) {
    ok += FuzzPayload("DecodeCatalogInto", varchar, rng, kPayloadMutants / 4,
                      DecodesCatalog);
  }
  for (const auto& m : mappings) {
    ok += FuzzPayload("DecodeMapping", m, rng, kPayloadMutants,
                      [](std::string_view p) {
                        ByteReader r(p);
                        return DecodeMapping(&r).ok();
                      });
  }
  // Some mutants (e.g. a flipped count value) stay decodable.
  EXPECT_GT(ok, 0);
}

TEST(PersistFuzzTest, VarcharColumnTypeAndValueTagAreDataLoss) {
  const std::vector<std::string> payloads = VarcharCatalogs();
  ASSERT_EQ(payloads.size(), 2u);
  for (const auto& payload : payloads) {
    sql::Catalog catalog;
    Status st = DecodeCatalogInto(payload, &catalog);
    EXPECT_TRUE(st.IsDataLoss()) << st.ToString();
  }
  // The same bytes with code 1 (BIGINT) in both places decode.
  std::string fixed = payloads[1];
  const size_t tag_at = fixed.find("seven") - 5;
  fixed.replace(tag_at, 10, std::string(1, '\x01') + std::string(8, '\0'));
  sql::Catalog catalog;
  Status st = DecodeCatalogInto(fixed, &catalog);
  EXPECT_TRUE(st.ok()) << st.ToString();
}

/// A real DB2RDF snapshot image of SmallGraph.
std::string StoreSnapshot() {
  MemEnv env;
  auto store = store::RdfStore::Load(SmallGraph());
  EXPECT_TRUE(store.ok()) << store.status().ToString();
  if (!store.ok()) return "";
  store::PersistOptions opts;
  opts.env = &env;
  opts.wal.sync = WalSync::kNone;
  EXPECT_TRUE((*store)->EnablePersistence("db", opts).ok());
  EXPECT_TRUE((*store)->Close().ok());
  auto file = env.ReadFile(PersistenceManager::SnapshotPath("db", 1));
  EXPECT_TRUE(file.ok()) << file.status().ToString();
  return file.ok() ? *file : "";
}

TEST(PersistFuzzTest, SnapshotMutantsReachSectionDecoders) {
  const std::string valid = StoreSnapshot();
  ASSERT_FALSE(valid.empty());
  ASSERT_TRUE(DecodeSnapshot(valid).ok());
  // Runs the section decoders on a framed mutant; returns how many of
  // its dictionary, statistics and catalog sections decoded.
  auto decode_sections = [](const SnapshotSections& sections) {
    int ok = 0;
    for (const auto& [id, payload] : sections) {
      switch (static_cast<SnapshotSection>(id)) {
        case SnapshotSection::kDictionary:
          ok += DecodeDictionary(payload).ok() ? 1 : 0;
          break;
        case SnapshotSection::kStatistics:
          ok += DecodeStatistics(payload).ok() ? 1 : 0;
          break;
        case SnapshotSection::kCatalog:
          ok += DecodesCatalog(payload) ? 1 : 0;
          break;
        default:
          break;
      }
    }
    return ok;
  };

  const SnapshotSections valid_sections = DecodeSnapshot(valid).value();
  Random rng(kSeed + 1);
  int framed = 0;
  int rejected = 0;
  int sections_ok = 0;
  for (int i = 0; i < kSnapshotMutants; ++i) {
    std::string mutant;
    if (rng.Bernoulli(0.5)) {
      // One section's payload mutated and re-framed: lengths and CRCs are
      // re-stamped, so the mutation always reaches its section decoder.
      SnapshotSections mutated = valid_sections;
      auto it = mutated.begin();
      std::advance(it, static_cast<std::ptrdiff_t>(
                           rng.Uniform(mutated.size())));
      it->second = Mutate(rng, it->second);
      mutant = EncodeSnapshot(mutated);
    } else {
      // The whole image mutated, framing included. Most such mutants get
      // their CRCs re-stamped; the rest exercise the checksum path itself.
      mutant = Mutate(rng, valid);
      if (rng.Bernoulli(0.9)) RestampSnapshot(&mutant);
    }
    try {
      Result<SnapshotSections> sections = DecodeSnapshot(mutant);
      if (!sections.ok()) {
        ++rejected;
        continue;
      }
      ++framed;
      sections_ok += decode_sections(*sections);
    } catch (const std::exception& e) {
      FAIL() << "snapshot decode threw " << e.what() << " on mutant " << i;
    }
  }
  EXPECT_GT(framed, kSnapshotMutants / 2);
  EXPECT_GT(rejected, 0);
  EXPECT_GT(sections_ok, 0);
}

TEST(PersistFuzzTest, WalReaderReturnsContinuousPrefix) {
  MemEnv env;
  const std::vector<rdf::Triple> triples = SampleTriples();
  {
    auto wal = WalWriter::Create(&env, "wal", 1, WalOptions{WalSync::kNone});
    ASSERT_TRUE(wal.ok()) << wal.status().ToString();
    for (size_t i = 0; i < triples.size(); i += 3) {
      const std::vector<rdf::Triple> part(
          triples.begin() + static_cast<std::ptrdiff_t>(i),
          triples.begin() +
              static_cast<std::ptrdiff_t>(std::min(i + 3, triples.size())));
      ASSERT_TRUE((*wal)->Append(static_cast<uint8_t>(
                                     WalRecordType::kInsertBatch),
                                 EncodeTripleBatch(part))
                      .ok());
    }
    ASSERT_TRUE((*wal)->Close().ok());
  }
  auto valid = env.ReadFile("wal");
  ASSERT_TRUE(valid.ok()) << valid.status().ToString();

  Random rng(kSeed + 2);
  int records = 0;
  int batches = 0;
  for (int i = 0; i < kWalMutants; ++i) {
    std::string mutant = Mutate(rng, *valid);
    if (rng.Bernoulli(0.8)) RestampWal(&mutant);
    env.SetFile("wal", mutant);
    try {
      Result<WalReplayResult> replay = ReadWalFile(&env, "wal", 1);
      if (!replay.ok()) continue;
      EXPECT_LE(replay->valid_bytes, replay->file_bytes);
      EXPECT_EQ(replay->torn, replay->valid_bytes < replay->file_bytes);
      uint64_t lsn = 1;
      for (const WalRecord& rec : replay->records) {
        EXPECT_EQ(rec.lsn, lsn++);
        batches += DecodeTripleBatch(rec.payload).ok() ? 1 : 0;
        ++records;
      }
    } catch (const std::exception& e) {
      FAIL() << "WAL replay threw " << e.what() << " on mutant " << i;
    }
  }
  EXPECT_GT(records, 0);
  EXPECT_GT(batches, 0);
}

}  // namespace
}  // namespace rdfrel::persist
