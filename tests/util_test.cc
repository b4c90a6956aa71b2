// Unit tests for the utility substrate: Status, Slice, codecs, SHA-256,
// Base32, rolling hash, CSV, and the synthetic data generator.
#include <gtest/gtest.h>

#include <map>

#include "util/base32.h"
#include "util/codec.h"
#include "util/compress.h"
#include "util/csv.h"
#include "util/delta_codec.h"
#include "util/datagen.h"
#include "util/random.h"
#include "util/rolling_hash.h"
#include "util/sha256.h"
#include "util/slice.h"
#include "util/status.h"

namespace forkbase {
namespace {

// ---------------------------------------------------------------- Status --

TEST(StatusTest, OkByDefault) {
  Status s;
  EXPECT_TRUE(s.ok());
  EXPECT_EQ(s.ToString(), "OK");
}

TEST(StatusTest, ErrorCarriesCodeAndMessage) {
  Status s = Status::NotFound("chunk xyz");
  EXPECT_FALSE(s.ok());
  EXPECT_TRUE(s.IsNotFound());
  EXPECT_EQ(s.code(), StatusCode::kNotFound);
  EXPECT_EQ(s.ToString(), "NotFound: chunk xyz");
}

TEST(StatusTest, AllCodesHaveNames) {
  EXPECT_STREQ(StatusCodeToString(StatusCode::kCorruption), "Corruption");
  EXPECT_STREQ(StatusCodeToString(StatusCode::kMergeConflict),
               "MergeConflict");
  EXPECT_STREQ(StatusCodeToString(StatusCode::kPermissionDenied),
               "PermissionDenied");
  EXPECT_STREQ(StatusCodeToString(StatusCode::kUnimplemented),
               "Unimplemented");
}

TEST(StatusOrTest, ValueAccess) {
  StatusOr<int> v = 42;
  ASSERT_TRUE(v.ok());
  EXPECT_EQ(*v, 42);
  EXPECT_EQ(v.value_or(7), 42);
}

TEST(StatusOrTest, ErrorAccess) {
  StatusOr<int> v = Status::IOError("disk");
  ASSERT_FALSE(v.ok());
  EXPECT_EQ(v.status().code(), StatusCode::kIOError);
  EXPECT_EQ(v.value_or(7), 7);
}

StatusOr<int> ReturnsDouble(StatusOr<int> in) {
  FB_ASSIGN_OR_RETURN(int x, in);
  return 2 * x;
}

TEST(StatusOrTest, AssignOrReturnMacro) {
  EXPECT_EQ(*ReturnsDouble(21), 42);
  EXPECT_TRUE(ReturnsDouble(Status::NotFound("x")).status().IsNotFound());
}

// ----------------------------------------------------------------- Slice --

TEST(SliceTest, CompareIsLexicographic) {
  EXPECT_LT(Slice("abc").compare(Slice("abd")), 0);
  EXPECT_GT(Slice("abd").compare(Slice("abc")), 0);
  EXPECT_EQ(Slice("abc").compare(Slice("abc")), 0);
  EXPECT_LT(Slice("ab").compare(Slice("abc")), 0);   // prefix sorts first
  EXPECT_TRUE(Slice("") < Slice("a"));
}

TEST(SliceTest, SubstrClamps) {
  Slice s("hello");
  EXPECT_EQ(s.substr(1, 3).ToString(), "ell");
  EXPECT_EQ(s.substr(4).ToString(), "o");
  EXPECT_EQ(s.substr(9).ToString(), "");
  EXPECT_EQ(s.substr(2, 100).ToString(), "llo");
}

// ----------------------------------------------------------------- Codec --

TEST(CodecTest, FixedRoundTrip) {
  std::string buf;
  PutFixed32(&buf, 0xdeadbeef);
  PutFixed64(&buf, 0x0123456789abcdefull);
  Decoder dec(buf);
  uint32_t a;
  uint64_t b;
  ASSERT_TRUE(dec.GetFixed32(&a));
  ASSERT_TRUE(dec.GetFixed64(&b));
  EXPECT_EQ(a, 0xdeadbeefu);
  EXPECT_EQ(b, 0x0123456789abcdefull);
  EXPECT_TRUE(dec.AtEnd());
}

class VarintRoundTrip : public ::testing::TestWithParam<uint64_t> {};

TEST_P(VarintRoundTrip, RoundTrips) {
  std::string buf;
  PutVarint64(&buf, GetParam());
  EXPECT_EQ(buf.size(), VarintLength(GetParam()));
  Decoder dec(buf);
  uint64_t v;
  ASSERT_TRUE(dec.GetVarint64(&v));
  EXPECT_EQ(v, GetParam());
  EXPECT_TRUE(dec.AtEnd());
}

INSTANTIATE_TEST_SUITE_P(Values, VarintRoundTrip,
                         ::testing::Values(0ull, 1ull, 127ull, 128ull,
                                           16383ull, 16384ull, 1ull << 32,
                                           (1ull << 56) - 1,
                                           UINT64_MAX));

TEST(CodecTest, LengthPrefixedRoundTrip) {
  std::string buf;
  PutLengthPrefixed(&buf, Slice("hello"));
  PutLengthPrefixed(&buf, Slice(""));
  PutLengthPrefixed(&buf, Slice(std::string(300, 'x')));
  Decoder dec(buf);
  Slice a, b, c;
  ASSERT_TRUE(dec.GetLengthPrefixed(&a));
  ASSERT_TRUE(dec.GetLengthPrefixed(&b));
  ASSERT_TRUE(dec.GetLengthPrefixed(&c));
  EXPECT_EQ(a.ToString(), "hello");
  EXPECT_TRUE(b.empty());
  EXPECT_EQ(c.size(), 300u);
  EXPECT_TRUE(dec.AtEnd());
}

TEST(CodecTest, DecoderRejectsUnderflow) {
  std::string buf;
  PutVarint64(&buf, 1000);  // length prefix promising 1000 bytes
  Decoder dec(buf);
  Slice s;
  EXPECT_FALSE(dec.GetLengthPrefixed(&s));
  uint64_t v;
  Decoder dec2(Slice("\xff\xff", 2));  // truncated varint
  EXPECT_FALSE(dec2.GetVarint64(&v));
}

// Regression: GetVarint64 once accepted overlong encodings — "\x80\x00"
// decoded to the same 0 as "\x00". Two byte strings decoding to one value
// desyncs every VarintLength-based offset computation (the network framer's
// malformed-varint heuristic, the bundle importer's record scan), so the
// decoder must enforce PutVarint64's canonical minimal form.
TEST(CodecTest, DecoderRejectsOverlongVarint) {
  const struct {
    const char* bytes;
    size_t len;
  } overlong[] = {
      {"\x80\x00", 2},                  // 0 padded to two bytes
      {"\xff\x00", 2},                  // 127 padded to two bytes
      {"\x80\x80\x80\x00", 4},          // 0 padded to four
      {"\x81\x80\x80\x80\x80\x80\x80\x80\x80\x00", 10},  // 1 padded to ten
  };
  for (const auto& c : overlong) {
    Decoder dec(Slice(c.bytes, c.len));
    uint64_t v = 0;
    EXPECT_FALSE(dec.GetVarint64(&v)) << "accepted overlong form";
    // A failed decode must not consume bytes: callers retry with more data
    // or bail, and either way the cursor has to still point at the varint.
    EXPECT_EQ(dec.position(), 0u);
  }
}

TEST(CodecTest, DecoderRejectsVarintOverflow) {
  // Ten bytes whose final byte carries more than bit 63: the value would
  // wrap past UINT64_MAX.
  Decoder dec(Slice("\xff\xff\xff\xff\xff\xff\xff\xff\xff\x02", 10));
  uint64_t v = 0;
  EXPECT_FALSE(dec.GetVarint64(&v));
  EXPECT_EQ(dec.position(), 0u);
  // UINT64_MAX itself (final byte 0x01) stays accepted.
  Decoder max_dec(Slice("\xff\xff\xff\xff\xff\xff\xff\xff\xff\x01", 10));
  ASSERT_TRUE(max_dec.GetVarint64(&v));
  EXPECT_EQ(v, UINT64_MAX);
}

// ------------------------------------------------------------ LZ blocks --

TEST(CompressTest, RoundTripsCompressibleAndRandomInput) {
  Rng rng(7);
  // Highly repetitive input compresses; the round trip is exact.
  std::string repetitive;
  for (int i = 0; i < 200; ++i) repetitive += "the quick brown fox ";
  std::string packed;
  LzCompressBlock(repetitive, &packed);
  EXPECT_LT(packed.size(), repetitive.size() / 2);
  EXPECT_EQ(LzDecompressedLength(packed), repetitive.size());
  std::string back;
  ASSERT_TRUE(LzDecompressBlock(packed, &back, repetitive.size()));
  EXPECT_EQ(back, repetitive);

  // Random input degenerates to literals but still round-trips.
  std::string random_bytes;
  for (int i = 0; i < 4096; ++i) {
    random_bytes.push_back(static_cast<char>(rng.Uniform(256)));
  }
  packed.clear();
  LzCompressBlock(random_bytes, &packed);
  back.clear();
  ASSERT_TRUE(LzDecompressBlock(packed, &back, random_bytes.size()));
  EXPECT_EQ(back, random_bytes);

  // Empty input round-trips too.
  packed.clear();
  back.clear();
  LzCompressBlock(Slice(""), &packed);
  ASSERT_TRUE(LzDecompressBlock(packed, &back, 0));
  EXPECT_TRUE(back.empty());
}

TEST(CompressTest, RejectsTruncatedAndTamperedBlocks) {
  std::string input(1000, 'a');
  std::string packed;
  LzCompressBlock(input, &packed);
  std::string out;
  EXPECT_FALSE(LzDecompressBlock(Slice(packed.data(), packed.size() / 2),
                                 &out, input.size()));
  out.clear();
  EXPECT_FALSE(LzDecompressBlock(Slice(""), &out, input.size()));
  // A length header promising more than the ops produce is malformed.
  std::string short_block;
  PutVarint64(&short_block, 50);  // promises 50 bytes, delivers none
  out.clear();
  EXPECT_FALSE(LzDecompressBlock(short_block, &out, input.size()));
}

TEST(CompressTest, LengthHeaderAboveTheCapFailsBeforeAllocating) {
  std::string input(1000, 'a');
  std::string packed;
  LzCompressBlock(input, &packed);
  std::string out;
  EXPECT_FALSE(LzDecompressBlock(packed, &out, input.size() - 1));
  EXPECT_TRUE(out.empty());
  // A header claiming 2^62 bytes would otherwise size the output first.
  std::string hostile;
  PutVarint64(&hostile, uint64_t{1} << 62);
  PutVarint64(&hostile, 1u << 1);
  hostile.push_back('x');
  EXPECT_FALSE(LzDecompressBlock(hostile, &out, uint64_t{1} << 30));
  EXPECT_TRUE(out.empty());
}

// ----------------------------------------------------------- delta codec --

TEST(DeltaCodecTest, RoundTripsNearIdenticalInputs) {
  std::string base;
  for (int i = 0; i < 300; ++i) {
    base += "row-" + std::to_string(i) + ":payload;";
  }
  std::string target = base;
  target.replace(100, 7, "EDITED!");
  target.insert(2000, "inserted run");

  std::string delta;
  CreateDelta(base, target, &delta);
  EXPECT_LT(delta.size(), target.size() / 8)
      << "near-identical versions must delta small";
  EXPECT_EQ(DeltaTargetLength(delta), target.size());
  std::string rebuilt;
  ASSERT_TRUE(ApplyDelta(base, delta, &rebuilt, target.size()));
  EXPECT_EQ(rebuilt, target);
  rebuilt.clear();
  EXPECT_FALSE(ApplyDelta(base, delta, &rebuilt, target.size() - 1))
      << "a target longer than the cap must be refused";
}

TEST(DeltaCodecTest, TargetLengthAboveTheCapFailsBeforeReserving) {
  std::string hostile;
  PutVarint64(&hostile, uint64_t{1} << 62);
  PutVarint64(&hostile, 1u << 1);
  hostile.push_back('x');
  PutFixed32(&hostile, DeltaChecksum(Slice("x")));
  std::string rebuilt;
  EXPECT_FALSE(ApplyDelta(Slice("base"), hostile, &rebuilt, uint64_t{1} << 30));
  EXPECT_TRUE(rebuilt.empty());
}

TEST(DeltaCodecTest, WrongBaseFailsTheChecksum) {
  std::string base_a(2000, 'a'), base_b(2000, 'b');
  std::string target = base_a + "tail";
  std::string delta;
  CreateDelta(base_a, target, &delta);
  std::string rebuilt;
  ASSERT_TRUE(ApplyDelta(base_a, delta, &rebuilt, target.size()));
  ASSERT_EQ(rebuilt, target);
  // Same length, different content: COPY offsets stay structurally valid,
  // so only the FNV trailer can catch the mixup — that is its whole job.
  rebuilt.clear();
  EXPECT_FALSE(ApplyDelta(base_b, delta, &rebuilt, target.size()));
}

TEST(DeltaCodecTest, RejectsTamperedDelta) {
  std::string base(1500, 'x');
  std::string target = base;
  target[700] = 'y';
  std::string delta;
  CreateDelta(base, target, &delta);
  std::string rebuilt;
  // Flip a byte in the middle (ops region) and in the trailer.
  for (size_t flip : {delta.size() / 2, delta.size() - 1}) {
    std::string bad = delta;
    bad[flip] ^= 0x04;
    rebuilt.clear();
    EXPECT_FALSE(ApplyDelta(base, bad, &rebuilt, target.size()))
        << "tampered delta at byte " << flip << " was accepted";
  }
  rebuilt.clear();
  EXPECT_FALSE(ApplyDelta(base, Slice(delta.data(), delta.size() - 5),
                          &rebuilt, target.size()))
      << "truncated delta was accepted";
}

// --------------------------------------------------------------- SHA-256 --

// FIPS 180-4 / NIST CAVS vectors.
TEST(Sha256Test, NistVectors) {
  EXPECT_EQ(Sha256(Slice("")).ToHex(),
            "e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855");
  EXPECT_EQ(Sha256(Slice("abc")).ToHex(),
            "ba7816bf8f01cfea414140de5dae2223b00361a396177a9cb410ff61f20015ad");
  EXPECT_EQ(
      Sha256(Slice("abcdbcdecdefdefgefghfghighijhijkijkljklmklmnlmnomnopnopq"))
          .ToHex(),
      "248d6a61d20638b8e5c026930c3e6039a33ce45964ff2167f6ecedd419db06c1");
  EXPECT_EQ(Sha256(Slice(std::string(1000000, 'a'))).ToHex(),
            "cdc76e5c9914fb9281a1c7e284d73e67f1809a48a497200e046d39ccc7112cd0");
}

TEST(Sha256Test, IncrementalMatchesOneShot) {
  Rng rng(3);
  std::string data = rng.NextBytes(100000);
  for (size_t step : {1u, 7u, 63u, 64u, 65u, 4096u}) {
    Sha256Hasher h;
    for (size_t i = 0; i < data.size(); i += step) {
      h.Update(Slice(data.data() + i, std::min(step, data.size() - i)));
    }
    EXPECT_EQ(h.Finish(), Sha256(data)) << "step " << step;
  }
}

TEST(Sha256Test, Hash256Helpers) {
  Hash256 null = Hash256::Null();
  EXPECT_TRUE(null.IsNull());
  Hash256 h = Sha256(Slice("x"));
  EXPECT_FALSE(h.IsNull());
  EXPECT_NE(h, null);
  EXPECT_EQ(h, Sha256(Slice("x")));
}

// ---------------------------------------------------------------- Base32 --

TEST(Base32Test, Rfc4648Vectors) {
  // RFC 4648 §10 (padding stripped — our encoder omits it).
  EXPECT_EQ(Base32Encode(Slice("")), "");
  EXPECT_EQ(Base32Encode(Slice("f")), "MY");
  EXPECT_EQ(Base32Encode(Slice("fo")), "MZXQ");
  EXPECT_EQ(Base32Encode(Slice("foo")), "MZXW6");
  EXPECT_EQ(Base32Encode(Slice("foob")), "MZXW6YQ");
  EXPECT_EQ(Base32Encode(Slice("fooba")), "MZXW6YTB");
  EXPECT_EQ(Base32Encode(Slice("foobar")), "MZXW6YTBOI");
}

TEST(Base32Test, DecodeInversesEncode) {
  Rng rng(17);
  for (size_t len = 0; len <= 64; ++len) {
    std::string data = rng.NextBytes(len);
    std::string decoded;
    ASSERT_TRUE(Base32Decode(Base32Encode(data), &decoded)) << len;
    EXPECT_EQ(decoded, data);
  }
}

TEST(Base32Test, DecodeToleratesPaddingAndCase) {
  std::string decoded;
  ASSERT_TRUE(Base32Decode(Slice("MZXW6YQ="), &decoded));
  EXPECT_EQ(decoded, "foob");
  ASSERT_TRUE(Base32Decode(Slice("mzxw6ytboi"), &decoded));
  EXPECT_EQ(decoded, "foobar");
}

TEST(Base32Test, DecodeRejectsBadAlphabet) {
  std::string decoded;
  EXPECT_FALSE(Base32Decode(Slice("M1XW6"), &decoded));  // '1' invalid
  EXPECT_FALSE(Base32Decode(Slice("M!"), &decoded));
}

TEST(Base32Test, UidRoundTrip) {
  Hash256 h = Sha256(Slice("forkbase"));
  std::string uid = h.ToBase32();
  EXPECT_EQ(uid.size(), 52u);  // ceil(256/5)
  Hash256 parsed;
  ASSERT_TRUE(Hash256::FromBase32(uid, &parsed));
  EXPECT_EQ(parsed, h);
}

// ---------------------------------------------------------- Rolling hash --

TEST(RollingHashTest, DeterministicAcrossInstances) {
  Rng rng(5);
  std::string data = rng.NextBytes(4096);
  RollingHash a(48, 12), b(48, 12);
  for (size_t i = 0; i < data.size(); ++i) {
    EXPECT_EQ(a.Roll(static_cast<uint8_t>(data[i])),
              b.Roll(static_cast<uint8_t>(data[i])));
  }
  EXPECT_EQ(a.hash(), b.hash());
}

TEST(RollingHashTest, WindowMustFillBeforePatterns) {
  RollingHash h(32, 1);  // q=1: patterns every other byte on average
  int fired = 0;
  for (int i = 0; i < 31; ++i) fired += h.Roll(static_cast<uint8_t>(i));
  EXPECT_EQ(fired, 0) << "patterns before the window is full";
}

TEST(RollingHashTest, HashDependsOnlyOnWindow) {
  // After k bytes, the hash must not depend on bytes older than the window.
  const size_t k = 16;
  std::string tail = Rng(7).NextBytes(k);
  RollingHash h1(k, 10), h2(k, 10);
  std::string prefix1 = Rng(8).NextBytes(100);
  std::string prefix2 = Rng(9).NextBytes(250);
  for (char c : prefix1) h1.Roll(static_cast<uint8_t>(c));
  for (char c : prefix2) h2.Roll(static_cast<uint8_t>(c));
  for (char c : tail) {
    h1.Roll(static_cast<uint8_t>(c));
    h2.Roll(static_cast<uint8_t>(c));
  }
  EXPECT_EQ(h1.hash(), h2.hash());
}

TEST(RollingHashTest, PatternRateApproximates2PowQ) {
  // With q bits, the pattern should fire with probability ~2^-q per byte.
  const uint32_t q = 8;
  RollingHash h(32, q);
  Rng rng(11);
  std::string data = rng.NextBytes(1 << 20);
  uint64_t fired = 0;
  for (char c : data) fired += h.Roll(static_cast<uint8_t>(c));
  const double expected = static_cast<double>(data.size()) / (1 << q);
  EXPECT_GT(fired, expected * 0.8);
  EXPECT_LT(fired, expected * 1.2);
}

TEST(RollingHashTest, ResetClearsState) {
  RollingHash h(16, 10);
  std::string data = Rng(13).NextBytes(64);
  std::vector<bool> first;
  for (char c : data) first.push_back(h.Roll(static_cast<uint8_t>(c)));
  h.Reset();
  std::vector<bool> second;
  for (char c : data) second.push_back(h.Roll(static_cast<uint8_t>(c)));
  EXPECT_EQ(first, second);
}

// ------------------------------------------------------------------- CSV --

TEST(CsvTest, ParsesSimpleDocument) {
  auto doc = ParseCsv(Slice("a,b,c\n1,2,3\n4,5,6\n"));
  ASSERT_TRUE(doc.ok());
  EXPECT_EQ(doc->header, (std::vector<std::string>{"a", "b", "c"}));
  ASSERT_EQ(doc->rows.size(), 2u);
  EXPECT_EQ(doc->rows[1], (std::vector<std::string>{"4", "5", "6"}));
}

TEST(CsvTest, HandlesQuotedCells) {
  auto doc = ParseCsv(Slice("k,v\n\"a,b\",\"line1\nline2\"\n\"he said "
                            "\"\"hi\"\"\",plain\n"));
  ASSERT_TRUE(doc.ok());
  EXPECT_EQ(doc->rows[0][0], "a,b");
  EXPECT_EQ(doc->rows[0][1], "line1\nline2");
  EXPECT_EQ(doc->rows[1][0], "he said \"hi\"");
}

TEST(CsvTest, RejectsRaggedRows) {
  EXPECT_FALSE(ParseCsv(Slice("a,b\n1,2,3\n")).ok());
}

TEST(CsvTest, RejectsUnterminatedQuote) {
  EXPECT_FALSE(ParseCsv(Slice("a\n\"oops\n")).ok());
}

TEST(CsvTest, WriteThenParseRoundTrips) {
  CsvDocument doc;
  doc.header = {"id", "text"};
  doc.rows = {{"r1", "plain"},
              {"r2", "with,comma"},
              {"r3", "with \"quote\""},
              {"r4", "multi\nline"}};
  auto reparsed = ParseCsv(WriteCsv(doc));
  ASSERT_TRUE(reparsed.ok());
  EXPECT_EQ(reparsed->header, doc.header);
  EXPECT_EQ(reparsed->rows, doc.rows);
}

TEST(CsvTest, CrlfTolerated) {
  auto doc = ParseCsv(Slice("a,b\r\n1,2\r\n"));
  ASSERT_TRUE(doc.ok());
  EXPECT_EQ(doc->rows[0], (std::vector<std::string>{"1", "2"}));
}

// --------------------------------------------------------------- Datagen --

TEST(DatagenTest, DeterministicForSeed) {
  CsvGenOptions opts;
  opts.num_rows = 50;
  CsvDocument a = GenerateCsv(opts);
  CsvDocument b = GenerateCsv(opts);
  EXPECT_EQ(WriteCsv(a), WriteCsv(b));
  opts.seed = 8;
  EXPECT_NE(WriteCsv(GenerateCsv(opts)), WriteCsv(a));
}

TEST(DatagenTest, TargetBytesApproximatelyHonored) {
  CsvGenOptions opts;
  opts.target_bytes = 338 * 1024;  // the Fig. 4 dataset size
  CsvDocument doc = GenerateCsv(opts);
  size_t bytes = CsvBytes(doc);
  EXPECT_GT(bytes, 330 * 1024u);
  EXPECT_LT(bytes, 350 * 1024u);
}

TEST(DatagenTest, EditOneWordChangesExactlyOneCell) {
  CsvGenOptions opts;
  opts.num_rows = 100;
  CsvDocument base = GenerateCsv(opts);
  CsvDocument edited = EditOneWord(base, 42, 3, "REPLACED");
  int diff_cells = 0;
  for (size_t r = 0; r < base.rows.size(); ++r) {
    for (size_t c = 0; c < base.header.size(); ++c) {
      if (base.rows[r][c] != edited.rows[r][c]) ++diff_cells;
    }
  }
  EXPECT_EQ(diff_cells, 1);
  EXPECT_EQ(edited.rows[42][3].rfind("REPLACED", 0), 0u);
}

TEST(DatagenTest, EditCellsTouchesRequestedCount) {
  CsvGenOptions opts;
  opts.num_rows = 500;
  CsvDocument base = GenerateCsv(opts);
  CsvDocument edited = EditCells(base, 10, 99);
  int diff_cells = 0;
  for (size_t r = 0; r < base.rows.size(); ++r) {
    for (size_t c = 0; c < base.header.size(); ++c) {
      if (base.rows[r][c] != edited.rows[r][c]) ++diff_cells;
    }
  }
  EXPECT_GE(diff_cells, 1);
  EXPECT_LE(diff_cells, 10);  // collisions may reduce the count
}

// ------------------------------------------------------------------- Rng --

TEST(RngTest, DeterministicAndDistributed) {
  Rng a(1), b(1);
  for (int i = 0; i < 100; ++i) EXPECT_EQ(a.Next(), b.Next());
  Rng c(2);
  std::map<uint64_t, int> buckets;
  for (int i = 0; i < 10000; ++i) ++buckets[c.Uniform(10)];
  for (const auto& [bucket, count] : buckets) {
    EXPECT_GT(count, 800) << bucket;
    EXPECT_LT(count, 1200) << bucket;
  }
}

}  // namespace
}  // namespace forkbase
