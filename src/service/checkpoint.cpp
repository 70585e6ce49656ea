#include "service/checkpoint.hpp"

#include <fcntl.h>
#include <sys/stat.h>
#include <unistd.h>

#include <algorithm>
#include <array>
#include <cstdio>
#include <utility>

#include "common/serial.hpp"
#include "sim/sharded.hpp"
#include "sim/simulator.hpp"

namespace iscope {

namespace {

/// Hard element-count ceiling for every vector header in a checkpoint.
/// Generous (a simulation this large would not fit a checkpoint anyway)
/// but finite: a corrupt count fails in Reader::count, never in a resize.
constexpr std::size_t kMaxElems = std::size_t{1} << 28;

/// Slicing-by-8 CRC-32 tables: row 0 is the byte-wise table of polynomial
/// 0xEDB88320 (reflected); row k carries row 0 over k more zero bytes.
constexpr std::array<std::array<std::uint32_t, 256>, 8> kCrcTables = [] {
  std::array<std::array<std::uint32_t, 256>, 8> t{};
  for (std::uint32_t b = 0; b < 256; ++b) {
    std::uint32_t c = b;
    for (int bit = 0; bit < 8; ++bit)
      c = (c & 1u) != 0 ? 0xEDB88320u ^ (c >> 1) : c >> 1;
    t[0][b] = c;
  }
  for (std::size_t k = 1; k < 8; ++k)
    for (std::size_t b = 0; b < 256; ++b)
      t[k][b] = (t[k - 1][b] >> 8) ^ t[0][t[k - 1][b] & 0xffu];
  return t;
}();

std::uint32_t load_le32(const std::uint8_t* p) {
  return static_cast<std::uint32_t>(p[0]) |
         static_cast<std::uint32_t>(p[1]) << 8 |
         static_cast<std::uint32_t>(p[2]) << 16 |
         static_cast<std::uint32_t>(p[3]) << 24;
}

[[noreturn]] void reject(const std::string& what) {
  throw CheckpointError("checkpoint: " + what);
}

// An io() member (DatacenterSim, ShardedSim and the simulator's drivers)
// calls the adapter once per field, in wire order:
//   io(v)                     plain field
//   io.same(v, what)          identity: written, only compared on load
//   io.in(v, lo, hi, what)    loaded value must lie in [lo, hi]
//   io.index(v, limit, what)  index below `limit`
//   io.vec(v, cap, each)      length-prefixed; loaded length <= cap
//   io.vec(v, each)           the same, capped at kMaxElems
//   io.fixed(v, n, each)      exactly n elements, length not written
//   io.check(ok, what)        a load fails unless `ok` (writes nothing)
// Integral fields travel as u64, bytes and enums as u8, bools as b, and
// doubles and quantities (watts, joules, seconds) as f64.

/// Writer adapter: every call emits its field.
class Save {
 public:
  static constexpr bool kLoading = false;
  explicit Save(serial::Writer& w) : w_(w) {}

  template <class T>
  void operator()(const T& v) {
    if constexpr (std::is_same_v<T, bool>) {
      w_.b(v);
    } else if constexpr (std::is_enum_v<T> || std::is_same_v<T, std::uint8_t>) {
      static_assert(sizeof(T) == 1, "enums travel as one byte");
      w_.u8(static_cast<std::uint8_t>(v));
    } else if constexpr (std::is_same_v<T, double>) {
      w_.f64(v);
    } else if constexpr (std::is_same_v<T, std::int64_t>) {
      w_.i64(v);
    } else if constexpr (std::is_same_v<T, std::string>) {
      w_.str(v);
    } else if constexpr (std::is_unsigned_v<T>) {
      w_.u64(v);
    } else if constexpr (std::is_same_v<T, Watts>) {
      w_.f64(v.watts());
    } else if constexpr (std::is_same_v<T, Joules>) {
      w_.f64(v.joules());
    } else {
      static_assert(std::is_same_v<T, Seconds>, "no wire encoding for T");
      w_.f64(v.seconds());
    }
  }
  template <class T>
  void same(const T& v, const char*) {
    (*this)(v);
  }
  template <class T>
  void in(const T& v, T, T, const char*) {
    (*this)(v);
  }
  void index(std::size_t v, std::size_t, const char*) { w_.u64(v); }
  template <class V, class Each>
  void vec(const V& v, std::size_t, Each&& each) {
    w_.u64(v.size());
    for (const auto& e : v) each(e);
  }
  template <class V, class Each>
  void vec(const V& v, Each&& each) {
    vec(v, kMaxElems, each);
  }
  template <class V, class Each>
  void fixed(const V& v, std::size_t, Each&& each) {
    for (const auto& e : v) each(e);
  }
  void check(bool, const char*) {}

 private:
  serial::Writer& w_;
};

/// Reader adapter: every call reads its field and applies its check.
class Load {
 public:
  static constexpr bool kLoading = true;
  explicit Load(serial::Reader& r) : r_(r) {}

  template <class T>
  void operator()(T& v) {
    if constexpr (std::is_same_v<T, bool>) {
      v = r_.b();
    } else if constexpr (std::is_enum_v<T> || std::is_same_v<T, std::uint8_t>) {
      v = static_cast<T>(r_.u8());
    } else if constexpr (std::is_same_v<T, double>) {
      v = r_.f64();
    } else if constexpr (std::is_same_v<T, std::int64_t>) {
      v = r_.i64();
    } else if constexpr (std::is_same_v<T, std::string>) {
      v = r_.str();
    } else if constexpr (std::is_unsigned_v<T>) {
      v = static_cast<T>(r_.u64());
    } else {
      v = T{r_.f64()};  // a dimensioned quantity
    }
  }
  template <class T>
  void same(const T& v, const char* what) {
    T got{};
    (*this)(got);
    if (got != v)
      reject(std::string("identity mismatch -- the restoring simulator was "
                         "built with a different ") +
             what);
  }
  template <class T>
  void in(T& v, T lo, T hi, const char* what) {
    (*this)(v);
    if (v < lo || v > hi) reject(std::string(what) + " out of range");
  }
  void index(std::size_t& v, std::size_t limit, const char* what) {
    (*this)(v);
    if (v >= limit) reject(std::string(what) + " index out of range");
  }
  template <class V, class Each>
  void vec(V& v, std::size_t cap, Each&& each) {
    // Every element takes at least one byte, so the unread payload bounds
    // the length before anything is allocated.
    v.clear();
    v.resize(r_.count(std::min(cap, r_.remaining())));
    for (auto& e : v) each(e);
  }
  template <class V, class Each>
  void vec(V& v, Each&& each) {
    vec(v, kMaxElems, each);
  }
  template <class V, class Each>
  void fixed(V& v, std::size_t n, Each&& each) {
    v.assign(n, typename V::value_type{});
    for (auto& e : v) each(e);
  }
  void check(bool ok, const char* what) {
    if (!ok) reject(what);
  }

 private:
  serial::Reader& r_;
};

}  // namespace

// ---------------------------------------------------------------------------
// CRC trailer, envelope + file helpers
// ---------------------------------------------------------------------------

std::uint32_t checkpoint_crc32(const std::uint8_t* data, std::size_t size) {
  const auto& t = kCrcTables;
  std::uint32_t c = 0xffffffffu;
  for (; size >= 8; data += 8, size -= 8) {
    const std::uint32_t lo = c ^ load_le32(data);
    const std::uint32_t hi = load_le32(data + 4);
    c = t[7][lo & 0xffu] ^ t[6][(lo >> 8) & 0xffu] ^
        t[5][(lo >> 16) & 0xffu] ^ t[4][lo >> 24] ^ t[3][hi & 0xffu] ^
        t[2][(hi >> 8) & 0xffu] ^ t[1][(hi >> 16) & 0xffu] ^ t[0][hi >> 24];
  }
  for (; size > 0; ++data, --size) c = t[0][(c ^ *data) & 0xffu] ^ (c >> 8);
  return ~c;
}

namespace {

constexpr std::uint8_t kKindSingle = 0;
constexpr std::uint8_t kKindSharded = 1;

template <typename Sim>
std::vector<std::uint8_t> envelope(const Sim& sim, std::uint8_t kind) {
  serial::Writer w;
  w.u32(kCheckpointMagic);
  w.u32(kCheckpointVersion);
  w.u8(kind);
  Save io(w);
  // One io() member serves both directions, so it is not const; the Save
  // adapter only reads (cereal's convention for output archives).
  const_cast<Sim&>(sim).io(io);
  w.u32(checkpoint_crc32(w.data().data(), w.size()));
  return w.take();
}

template <typename Sim>
void load_envelope(Sim& sim, const std::uint8_t* data, std::size_t size,
                   std::uint8_t kind) {
  try {
    serial::Reader r(data, size);
    if (r.u32() != kCheckpointMagic)
      throw CheckpointError("checkpoint: bad magic (not a checkpoint file)");
    const std::uint32_t version = r.u32();
    if (version != kCheckpointVersion)
      throw CheckpointError("checkpoint: format version " +
                            std::to_string(version) +
                            " is not supported by this build (expected " +
                            std::to_string(kCheckpointVersion) + ")");
    // The 4-byte trailer seals everything before it: no field past the
    // 8 bytes of magic and version is read from a torn or flipped file.
    if (size < 12 || checkpoint_crc32(data, size - 4) !=
                         load_le32(data + size - 4))
      throw CheckpointError("checkpoint: checksum mismatch");
    serial::Reader body(data + 8, size - 12);
    if (body.u8() != kind)
      throw CheckpointError(
          "checkpoint: simulator kind mismatch (single vs sharded)");
    Load io(body);
    sim.io(io);
    body.expect_done();
  } catch (const CheckpointError&) {
    throw;
  } catch (const Error& e) {
    // Truncation and lying length prefixes surface as serial over-reads
    // (ParseError); corrupt-but-well-framed values can also trip deeper
    // invariant checks (e.g. Rng rejecting a mangled engine state, or the
    // event queue a non-heap layout). Fold them all into the checkpoint
    // failure type callers handle.
    throw CheckpointError(std::string("checkpoint: corrupt payload -- ") +
                          e.what());
  }
}

template <typename Sim>
void restore_envelope(Sim& sim, const std::uint8_t* data, std::size_t size,
                      std::uint8_t kind) {
  // Before prepare() the per-processor arrays are empty, so the simulator's
  // own bytes would not load back as the undo copy below.
  if (!sim.prepared())
    throw CheckpointError("checkpoint: restore needs a prepared simulator");
  // A load writes straight into the simulator and can fail part-way, so a
  // refused blob is undone by reloading the simulator's own bytes.
  const std::vector<std::uint8_t> own = envelope(sim, kind);
  try {
    load_envelope(sim, data, size, kind);
  } catch (...) {
    load_envelope(sim, own.data(), own.size(), kind);
    throw;
  }
}

}  // namespace

std::vector<std::uint8_t> checkpoint_bytes(const DatacenterSim& sim) {
  return envelope(sim, kKindSingle);
}

std::vector<std::uint8_t> checkpoint_bytes(const ShardedSim& sim) {
  return envelope(sim, kKindSharded);
}

void restore_from_bytes(DatacenterSim& sim, const std::uint8_t* data,
                        std::size_t size) {
  restore_envelope(sim, data, size, kKindSingle);
}

void restore_from_bytes(ShardedSim& sim, const std::uint8_t* data,
                        std::size_t size) {
  restore_envelope(sim, data, size, kKindSharded);
}

void write_checkpoint(const std::string& path,
                      const std::vector<std::uint8_t>& blob) {
  const std::string tmp = path + ".tmp";
  std::FILE* f = std::fopen(tmp.c_str(), "wb");
  ISCOPE_CHECK_ARG(f != nullptr, "checkpoint: cannot open " + tmp);
  const bool written =
      std::fwrite(blob.data(), 1, blob.size(), f) == blob.size();
  // The bytes must be on disk before the rename publishes them, or after a
  // power loss the final name can point at an empty or partial file.
  const bool synced = std::fflush(f) == 0 && ::fsync(::fileno(f)) == 0;
  // A failed close can lose buffered bytes: it is a short write too.
  const bool closed = std::fclose(f) == 0;
  if (!written || !synced || !closed) {
    std::remove(tmp.c_str());
    throw Error("checkpoint: short write to " + tmp);
  }
  // Atomic replace: a crash mid-write leaves the previous checkpoint.
  if (std::rename(tmp.c_str(), path.c_str()) != 0) {
    std::remove(tmp.c_str());
    throw InvalidArgument("checkpoint: cannot rename " + tmp + " to " + path);
  }
  // The rename is durable only once the directory entry is on disk.
  const std::size_t slash = path.rfind('/');
  const std::string dir = slash == std::string::npos ? "."
                          : slash == 0               ? "/"
                                                     : path.substr(0, slash);
  const int fd = ::open(dir.c_str(), O_RDONLY | O_DIRECTORY);
  const bool dir_synced = fd >= 0 && ::fsync(fd) == 0;
  if (fd >= 0) ::close(fd);
  if (!dir_synced) throw Error("checkpoint: cannot sync directory " + dir);
}

std::vector<std::uint8_t> read_checkpoint(const std::string& path) {
  std::FILE* f = std::fopen(path.c_str(), "rb");
  if (f == nullptr) throw CheckpointError("checkpoint: cannot open " + path);
  // Size from fstat, not fseek/ftell: opening a directory succeeds on
  // Linux, and its "size" must be refused, not allocated.
  struct stat st {};
  if (::fstat(::fileno(f), &st) != 0 || !S_ISREG(st.st_mode)) {
    std::fclose(f);
    throw CheckpointError("checkpoint: not a regular file: " + path);
  }
  std::vector<std::uint8_t> blob(static_cast<std::size_t>(st.st_size));
  const std::size_t got = std::fread(blob.data(), 1, blob.size(), f);
  std::fclose(f);
  if (got != blob.size())
    throw CheckpointError("checkpoint: short read from " + path);
  return blob;
}

}  // namespace iscope
