// Little-endian codec shared by the obs/ binary formats: the journal
// (RNMJ), the shard profile (RNSP) and decision provenance (RNPV).
//
// Every format opens with a 4-byte magic, a u32 version and a u32-length
// algorithm name, then writes fixed-width fields in struct order with no
// padding. Readers stream-check every length and grow containers
// incrementally, so truncated or corrupted input fails cleanly (false plus
// an error string) instead of aborting or over-allocating.
#pragma once

#include <cstddef>
#include <cstdint>
#include <istream>
#include <ostream>
#include <string>
#include <type_traits>

namespace renaming::obs {

/// One binary format's identity and its reader's identity errors.
struct CodecFormat {
  char magic[4];
  std::uint32_t version;
  const char* bad_magic;    ///< error for a foreign file
  const char* bad_version;  ///< error for a version mismatch
};

inline void put_bytes(std::ostream& out, std::uint64_t v, int bytes) {
  for (int i = 0; i < bytes; ++i) {
    out.put(static_cast<char>((v >> (8 * i)) & 0xff));
  }
}
// Named widths: callers pass other integer types, so the width must not
// follow the argument's type.
inline void put_u8(std::ostream& o, std::uint8_t v) { put_bytes(o, v, 1); }
inline void put_u16(std::ostream& o, std::uint16_t v) { put_bytes(o, v, 2); }
inline void put_u32(std::ostream& o, std::uint32_t v) { put_bytes(o, v, 4); }
inline void put_u64(std::ostream& o, std::uint64_t v) { put_bytes(o, v, 8); }
inline void put_i64(std::ostream& o, std::int64_t v) { put_bytes(o, v, 8); }

/// Reads sizeof(T) bytes into *v; the width follows the destination field,
/// which a pointer argument pins exactly. False at end of stream.
template <typename T>
bool get_bytes(std::istream& in, T* v) {
  static_assert(std::is_integral_v<T>);
  std::uint64_t out = 0;
  for (std::size_t i = 0; i < sizeof(T); ++i) {
    const int ch = in.get();
    if (ch < 0) return false;
    out |= static_cast<std::uint64_t>(ch & 0xff) << (8 * i);
  }
  *v = static_cast<T>(out);
  return true;
}

/// Reader failure: records `what` in *error (if non-null), returns false.
inline bool fail(std::string* error, const char* what) {
  if (error != nullptr) *error = what;
  return false;
}

inline void write_header(std::ostream& out, const CodecFormat& format,
                         const std::string& algorithm) {
  out.write(format.magic, 4);
  put_u32(out, format.version);
  put_u32(out, static_cast<std::uint32_t>(algorithm.size()));
  out.write(algorithm.data(), static_cast<std::streamsize>(algorithm.size()));
}

/// Parses write_header's bytes. A name over 4096 bytes is rejected before
/// anything is allocated.
inline bool read_header(std::istream& in, const CodecFormat& format,
                        std::string* algorithm, std::string* error) {
  char magic[4] = {};
  in.read(magic, 4);
  if (in.gcount() != 4 || magic[0] != format.magic[0] ||
      magic[1] != format.magic[1] || magic[2] != format.magic[2] ||
      magic[3] != format.magic[3]) {
    return fail(error, format.bad_magic);
  }
  std::uint32_t version = 0;
  if (!get_bytes(in, &version)) return fail(error, "truncated header");
  if (version != format.version) return fail(error, format.bad_version);
  std::uint32_t algo_len = 0;
  if (!get_bytes(in, &algo_len)) return fail(error, "truncated header");
  if (algo_len > 4096) return fail(error, "implausible algorithm name");
  algorithm->resize(algo_len);
  in.read(algorithm->data(), algo_len);
  if (in.gcount() != static_cast<std::streamsize>(algo_len)) {
    return fail(error, "truncated header");
  }
  return true;
}

}  // namespace renaming::obs
