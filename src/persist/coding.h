#ifndef RDFREL_PERSIST_CODING_H_
#define RDFREL_PERSIST_CODING_H_

/// \file coding.h
/// Little-endian fixed-width byte coding for the persistence formats.
/// Everything on disk is explicit-width little-endian (no varints): the
/// formats favor auditability over the last few bytes of density.

#include <cstdint>
#include <cstring>
#include <string>
#include <string_view>

#include "util/status.h"

namespace rdfrel::persist {

inline void PutU8(std::string* out, uint8_t v) {
  out->push_back(static_cast<char>(v));
}

inline void PutU32(std::string* out, uint32_t v) {
  char buf[4];
  for (int i = 0; i < 4; ++i) {
    buf[i] = static_cast<char>((v >> (8 * i)) & 0xFFu);
  }
  out->append(buf, 4);
}

inline void PutU64(std::string* out, uint64_t v) {
  char buf[8];
  for (int i = 0; i < 8; ++i) {
    buf[i] = static_cast<char>((v >> (8 * i)) & 0xFFu);
  }
  out->append(buf, 8);
}

inline void PutI64(std::string* out, int64_t v) {
  PutU64(out, static_cast<uint64_t>(v));
}

inline void PutDouble(std::string* out, double v) {
  uint64_t bits;
  std::memcpy(&bits, &v, sizeof(bits));
  PutU64(out, bits);
}

/// Length-prefixed (u32) byte string.
inline void PutString(std::string* out, std::string_view s) {
  PutU32(out, static_cast<uint32_t>(s.size()));
  out->append(s.data(), s.size());
}

/// A bounds-checked sequential reader over an immutable byte span. Every
/// accessor fails with kDataLoss instead of reading past the end, so a
/// truncated or bit-flipped payload surfaces as a recoverable Status, never
/// as undefined behavior.
class ByteReader {
 public:
  explicit ByteReader(std::string_view data) : data_(data) {}
  /// The reader keeps a view, so a temporary string would dangle.
  explicit ByteReader(std::string&&) = delete;

  size_t remaining() const { return data_.size() - pos_; }
  size_t position() const { return pos_; }
  bool AtEnd() const { return pos_ == data_.size(); }

  Result<uint8_t> ReadU8() {
    if (remaining() < 1) return Short("u8");
    return static_cast<uint8_t>(data_[pos_++]);
  }

  Result<uint32_t> ReadU32() {
    if (remaining() < 4) return Short("u32");
    uint32_t v = 0;
    for (size_t i = 0; i < 4; ++i) {
      v |= static_cast<uint32_t>(static_cast<unsigned char>(data_[pos_ + i]))
           << (8 * i);
    }
    pos_ += 4;
    return v;
  }

  Result<uint64_t> ReadU64() {
    if (remaining() < 8) return Short("u64");
    uint64_t v = 0;
    for (size_t i = 0; i < 8; ++i) {
      v |= static_cast<uint64_t>(static_cast<unsigned char>(data_[pos_ + i]))
           << (8 * i);
    }
    pos_ += 8;
    return v;
  }

  Result<int64_t> ReadI64() {
    RDFREL_ASSIGN_OR_RETURN(uint64_t v, ReadU64());
    return static_cast<int64_t>(v);
  }

  Result<double> ReadDouble() {
    RDFREL_ASSIGN_OR_RETURN(uint64_t bits, ReadU64());
    double v;
    std::memcpy(&v, &bits, sizeof(v));
    return v;
  }

  Result<std::string_view> ReadString() {
    RDFREL_ASSIGN_OR_RETURN(uint32_t len, ReadU32());
    if (remaining() < len) return Short("string body");
    std::string_view s = data_.substr(pos_, len);
    pos_ += len;
    return s;
  }

  /// Raw bytes without a length prefix (caller knows the width).
  Result<std::string_view> ReadRaw(size_t n) {
    if (remaining() < n) return Short("raw bytes");
    std::string_view s = data_.substr(pos_, n);
    pos_ += n;
    return s;
  }

 private:
  Status Short(const char* what) const {
    return Status::DataLoss(std::string("serialized data truncated reading ") +
                            what + " at offset " + std::to_string(pos_));
  }

  std::string_view data_;
  size_t pos_ = 0;
};

}  // namespace rdfrel::persist

#endif  // RDFREL_PERSIST_CODING_H_
