// Canonical Huffman coder: known properties, round trips, robustness.
#include <gtest/gtest.h>

#include "compress/compressor.hpp"
#include "compress/huffman.hpp"
#include "compress/varint.hpp"
#include "util/rng.hpp"

namespace cloudsync {
namespace {

TEST(Huffman, RoundTripText) {
  rng r(1);
  const byte_buffer text = random_text(r, 100'000);
  const byte_buffer frame = huffman_encode(text);
  EXPECT_EQ(huffman_decode(frame), text);
  // Lowercase+digits text has < 6 bits/byte of entropy: must shrink.
  EXPECT_LT(frame.size(), text.size() * 8 / 10);
}

TEST(Huffman, RoundTripRandomBytesStored) {
  rng r(2);
  const byte_buffer noise = random_bytes(r, 50'000);
  const byte_buffer frame = huffman_encode(noise);
  EXPECT_EQ(huffman_decode(frame), noise);
  // Uniform bytes cannot be entropy-coded; stored fallback keeps it tight.
  EXPECT_LE(frame.size(), noise.size() + 8);
}

TEST(Huffman, RoundTripSkewedDistribution) {
  // Heavy skew: one symbol dominates — near-1-bit codes.
  rng r(3);
  byte_buffer data;
  for (int i = 0; i < 50'000; ++i) {
    data.push_back(r.chance(0.9) ? 'a' : static_cast<std::uint8_t>(r.next()));
  }
  const byte_buffer frame = huffman_encode(data);
  EXPECT_EQ(huffman_decode(frame), data);
  EXPECT_LT(frame.size(), data.size() / 2);
}

TEST(Huffman, SingleSymbolRuns) {
  const byte_buffer data(10'000, std::uint8_t{'z'});
  const byte_buffer frame = huffman_encode(data);
  EXPECT_EQ(huffman_decode(frame), data);
  // One symbol -> 1 bit each -> ~1.25 KB + table.
  EXPECT_LT(frame.size(), 1500u);
}

TEST(Huffman, TinyAndEmptyInputsStored) {
  EXPECT_TRUE(huffman_decode(huffman_encode({})).empty());
  const byte_buffer one = to_buffer("x");
  EXPECT_EQ(huffman_decode(huffman_encode(one)), one);
}

class HuffmanSizes : public ::testing::TestWithParam<std::size_t> {};

TEST_P(HuffmanSizes, RoundTrip) {
  rng r(GetParam());
  const byte_buffer data = random_text(r, GetParam());
  EXPECT_EQ(huffman_decode(huffman_encode(data)), data);
}

INSTANTIATE_TEST_SUITE_P(Sizes, HuffmanSizes,
                         ::testing::Values(63, 64, 65, 127, 1000, 4097,
                                           65'536, 300'000));

TEST(Huffman, AllByteValuesPresent) {
  byte_buffer data;
  for (int rep = 0; rep < 300; ++rep) {
    for (int b = 0; b < 256; ++b) {
      data.push_back(static_cast<std::uint8_t>(b));
    }
  }
  EXPECT_EQ(huffman_decode(huffman_encode(data)), data);
}

TEST(Huffman, CorruptionDetected) {
  rng r(4);
  byte_buffer frame = huffman_encode(random_text(r, 10'000));
  frame.resize(frame.size() / 2);  // truncate the bit stream
  EXPECT_THROW(huffman_decode(frame), std::runtime_error);
  EXPECT_THROW(huffman_decode(to_buffer("garbage")), std::runtime_error);
  EXPECT_THROW(huffman_decode({}), std::runtime_error);
}

TEST(Huffman, OversizedHeaderThrows) {
  // A frame that claims 1 TiB behind a one-symbol code table and no bit
  // stream must fail as malformed, not by trying to reserve the memory.
  byte_buffer frame = {'h', 'f', 1};
  put_varint(frame, std::uint64_t{1} << 40);
  frame.push_back(0x10);  // symbol 0 has a 1-bit code
  frame.insert(frame.end(), 127, 0);
  EXPECT_THROW(huffman_decode(frame), std::runtime_error);
}

TEST(ByteEntropy, KnownValues) {
  EXPECT_DOUBLE_EQ(byte_entropy_bits({}), 0.0);
  EXPECT_DOUBLE_EQ(byte_entropy_bits(as_bytes("aaaa")), 0.0);
  EXPECT_NEAR(byte_entropy_bits(as_bytes("abab")), 1.0, 1e-9);
  rng r(5);
  const byte_buffer noise = random_bytes(r, 100'000);
  EXPECT_GT(byte_entropy_bits(noise), 7.9);
}

TEST(HuffmanLzss, PipelineBeatsLzssAloneOnText) {
  rng r(6);
  const byte_buffer text = random_text(r, 500'000);
  const huffman_lzss_compressor pipeline(9);
  const lzss_compressor dictionary_only(9);
  const byte_buffer two_stage = pipeline.compress(text);
  const byte_buffer one_stage = dictionary_only.compress(text);
  EXPECT_LT(two_stage.size(), one_stage.size());
  EXPECT_EQ(pipeline.decompress(two_stage), text);
  EXPECT_EQ(pipeline.name(), "lzss+huffman-9");
}

TEST(HuffmanLzss, RoundTripsIncompressible) {
  rng r(7);
  const byte_buffer noise = random_bytes(r, 100'000);
  const huffman_lzss_compressor pipeline(5);
  EXPECT_EQ(pipeline.decompress(pipeline.compress(noise)), noise);
}

}  // namespace
}  // namespace cloudsync
