#include "flat/tables.h"

#include <charconv>

#include "io/codec.h"

namespace agl::flat {

std::string NodeRecord::Serialize() const {
  io::BufferWriter w;
  w.PutVarint64(id);
  w.PutFloatArray(features);
  w.PutVarint64Signed(label);
  w.PutFloatArray(multilabel);
  return w.Release();
}

agl::Result<NodeRecord> NodeRecord::Parse(const std::string& bytes) {
  io::BufferReader r(bytes);
  NodeRecord rec;
  AGL_RETURN_IF_ERROR(r.GetVarint64(&rec.id));
  AGL_RETURN_IF_ERROR(r.GetFloatArray(&rec.features));
  AGL_RETURN_IF_ERROR(r.GetVarint64Signed(&rec.label));
  AGL_RETURN_IF_ERROR(r.GetFloatArray(&rec.multilabel));
  return rec;
}

std::string EdgeRecord::Serialize() const {
  io::BufferWriter w;
  w.PutVarint64(src);
  w.PutVarint64(dst);
  w.PutFloat(weight);
  w.PutFloatArray(features);
  return w.Release();
}

agl::Result<EdgeRecord> EdgeRecord::Parse(const std::string& bytes) {
  io::BufferReader r(bytes);
  EdgeRecord rec;
  AGL_RETURN_IF_ERROR(r.GetVarint64(&rec.src));
  AGL_RETURN_IF_ERROR(r.GetVarint64(&rec.dst));
  AGL_RETURN_IF_ERROR(r.GetFloat(&rec.weight));
  AGL_RETURN_IF_ERROR(r.GetFloatArray(&rec.features));
  return rec;
}

agl::Result<NodeId> ParseNodeKey(const std::string& key) {
  NodeId id = 0;
  const char* end = key.data() + key.size();
  // For an unsigned type from_chars rejects an empty input, a sign and
  // whitespace, and reports overflow as result_out_of_range.
  const auto [ptr, ec] = std::from_chars(key.data(), end, id);
  if (ec != std::errc() || ptr != end) {
    return agl::Status::Corruption("malformed node key '" + key + "'");
  }
  return id;
}

}  // namespace agl::flat
