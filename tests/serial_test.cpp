// Tests for serial/: buffer primitives, tensor codec, envelope sizing.
#include <gtest/gtest.h>

#include "src/common/error.hpp"
#include "src/common/rng.hpp"
#include "src/serial/buffer.hpp"
#include "src/serial/codec.hpp"
#include "src/serial/message.hpp"
#include "src/tensor/ops.hpp"

namespace splitmed {
namespace {

TEST(Buffer, ScalarRoundTrip) {
  BufferWriter w;
  w.write_u8(0xAB);
  w.write_u32(0xDEADBEEF);
  w.write_u64(0x0123456789ABCDEFULL);
  w.write_i64(-42);
  w.write_f32(1.5F);
  w.write_f64(-2.25);
  w.write_string("hello");

  BufferReader r({w.bytes().data(), w.bytes().size()});
  EXPECT_EQ(r.read_u8(), 0xAB);
  EXPECT_EQ(r.read_u32(), 0xDEADBEEFU);
  EXPECT_EQ(r.read_u64(), 0x0123456789ABCDEFULL);
  EXPECT_EQ(r.read_i64(), -42);
  EXPECT_EQ(r.read_f32(), 1.5F);
  EXPECT_EQ(r.read_f64(), -2.25);
  EXPECT_EQ(r.read_string(), "hello");
  EXPECT_TRUE(r.exhausted());
}

TEST(Buffer, TruncatedReadThrows) {
  BufferWriter w;
  w.write_u32(7);
  BufferReader r({w.bytes().data(), w.bytes().size()});
  EXPECT_EQ(r.read_u32(), 7U);
  EXPECT_THROW(r.read_u8(), SerializationError);
}

TEST(Buffer, TruncatedStringThrows) {
  BufferWriter w;
  w.write_u32(100);  // claims 100 bytes follow, none do
  BufferReader r({w.bytes().data(), w.bytes().size()});
  EXPECT_THROW(r.read_string(), SerializationError);
}

TEST(Buffer, F32SpanRoundTrip) {
  BufferWriter w;
  const std::vector<float> vs = {1, 2, 3, 4.5F};
  w.write_f32_span(vs);
  BufferReader r({w.bytes().data(), w.bytes().size()});
  std::vector<float> out(4);
  r.read_f32_span(out);
  EXPECT_EQ(out, vs);
}

TEST(TensorCodec, RoundTripPreservesShapeAndData) {
  Rng rng(5);
  for (const Shape& shape :
       {Shape{}, Shape{0}, Shape{7}, Shape{2, 3}, Shape{2, 3, 4, 5}}) {
    const Tensor t = Tensor::normal(shape, rng);
    BufferWriter w;
    encode_tensor(t, w);
    EXPECT_EQ(w.size(), encoded_tensor_bytes(shape, WireCodec::kF32));
    BufferReader r({w.bytes().data(), w.bytes().size()});
    const Tensor back = decode_tensor(r);
    EXPECT_EQ(back.shape(), t.shape());
    if (t.numel() > 0) {
      EXPECT_EQ(ops::max_abs_diff(back, t), 0.0F);
    }
    EXPECT_TRUE(r.exhausted());
  }
}

TEST(TensorCodec, RejectsHostileRank) {
  BufferWriter w;
  w.write_u32(1000);  // absurd rank
  BufferReader r({w.bytes().data(), w.bytes().size()});
  EXPECT_THROW(decode_tensor(r), SerializationError);
}

TEST(TensorCodec, RejectsNegativeDim) {
  BufferWriter w;
  w.write_u32(1);
  w.write_i64(-5);
  BufferReader r({w.bytes().data(), w.bytes().size()});
  EXPECT_THROW(decode_tensor(r), SerializationError);
}

TEST(TensorCodec, RejectsTruncatedPayload) {
  BufferWriter w;
  w.write_u32(1);
  w.write_i64(10);  // promises 10 floats, delivers none
  BufferReader r({w.bytes().data(), w.bytes().size()});
  EXPECT_THROW(decode_tensor(r), SerializationError);
}

TEST(Envelope, WireBytesIncludeHeader) {
  Envelope e = make_envelope(1, 2, 3, 4, std::vector<std::uint8_t>(10));
  EXPECT_EQ(e.wire_bytes(), Envelope::kEnvelopeHeaderBytes + 10);
  EXPECT_EQ(e.src, 1U);
  EXPECT_EQ(e.dst, 2U);
  EXPECT_EQ(e.kind, 3U);
  EXPECT_EQ(e.round, 4U);
}

TEST(EncodedBytes, MatchesFormula) {
  // rank word + 1 scalar; rank word + dim + 3 floats; rank word + 2 dims +
  // 4 floats.
  EXPECT_EQ(encoded_tensor_bytes(Shape{}, WireCodec::kF32), 4U + 4);
  EXPECT_EQ(encoded_tensor_bytes(Shape{3}, WireCodec::kF32), 4U + 8 + 12);
  EXPECT_EQ(encoded_tensor_bytes(Shape{2, 2}, WireCodec::kF32), 4U + 16 + 16);
}

}  // namespace
}  // namespace splitmed
