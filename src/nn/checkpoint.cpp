#include "src/nn/checkpoint.hpp"

#include <fstream>
#include <utility>

#include "src/common/error.hpp"
#include "src/serial/section_file.hpp"
#include "src/serial/codec.hpp"

namespace splitmed {

namespace {
constexpr char kMagic[] = "SMCKPT01";
constexpr std::size_t kMagicLen = 8;
}  // namespace

void write_parameters(BufferWriter& w,
                      const std::vector<nn::Parameter*>& params) {
  w.write_u32(static_cast<std::uint32_t>(params.size()));
  for (const nn::Parameter* p : params) {
    SPLITMED_CHECK(p != nullptr, "null parameter");
    w.write_string(p->name);
    encode_tensor(p->value, w);
  }
}

namespace {

// Decodes the parameter block into temporaries without touching `params` —
// the caller applies only after every cross-block validation passed.
std::vector<Tensor> decode_parameters(BufferReader& r,
                                      const std::vector<nn::Parameter*>& params,
                                      const std::string& context) {
  const std::uint32_t count = r.read_u32();
  if (count != params.size()) {
    throw SerializationError(context + ": parameter count mismatch: file has " +
                             std::to_string(count) + ", model has " +
                             std::to_string(params.size()));
  }
  std::vector<Tensor> values;
  values.reserve(params.size());
  for (const nn::Parameter* p : params) {
    const std::string name = r.read_string();
    if (name != p->name) {
      throw SerializationError(context + ": parameter name mismatch: file '" +
                               name + "' vs model '" + p->name + "'");
    }
    Tensor value;
    try {
      value = decode_tensor(r);
    } catch (const SerializationError& e) {
      throw SerializationError(context + ": short read in parameter '" + name +
                               "' (expected shape " + p->value.shape().str() +
                               "): " + e.what());
    }
    if (value.shape() != p->value.shape()) {
      throw SerializationError(context + ": shape mismatch for '" + name +
                               "': file " + value.shape().str() +
                               " vs model " + p->value.shape().str());
    }
    values.push_back(std::move(value));
  }
  return values;
}

}  // namespace

void read_parameters(BufferReader& r,
                     const std::vector<nn::Parameter*>& params,
                     const std::string& context) {
  std::vector<Tensor> values = decode_parameters(r, params, context);
  for (std::size_t i = 0; i < params.size(); ++i) {
    params[i]->value = std::move(values[i]);
  }
}

void save_parameters(const std::string& path,
                     const std::vector<nn::Parameter*>& params) {
  BufferWriter w;
  for (std::size_t i = 0; i < kMagicLen; ++i) w.write_u8(kMagic[i]);
  write_parameters(w, params);
  atomic_write_file(path, {w.bytes().data(), w.size()});
}

void load_parameters(const std::string& path,
                     const std::vector<nn::Parameter*>& params) {
  std::ifstream in(path, std::ios::binary);
  if (!in) throw Error("checkpoint: cannot open '" + path + "'");
  std::vector<std::uint8_t> bytes((std::istreambuf_iterator<char>(in)),
                                  std::istreambuf_iterator<char>());
  BufferReader r({bytes.data(), bytes.size()});
  for (std::size_t i = 0; i < kMagicLen; ++i) {
    if (r.remaining() == 0 ||
        r.read_u8() != static_cast<std::uint8_t>(kMagic[i])) {
      throw SerializationError("checkpoint: bad magic in '" + path + "'");
    }
  }
  // Decode and validate everything — including trailing-garbage rejection —
  // before mutating a single parameter: a bad file never partially loads.
  std::vector<Tensor> values =
      decode_parameters(r, params, "checkpoint '" + path + "'");
  if (!r.exhausted()) {
    throw SerializationError("checkpoint: trailing bytes in '" + path + "' (" +
                             std::to_string(r.remaining()) +
                             " bytes past the last parameter)");
  }
  for (std::size_t i = 0; i < params.size(); ++i) {
    params[i]->value = std::move(values[i]);
  }
}

}  // namespace splitmed
