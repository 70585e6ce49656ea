#include "service/checkpoint.hpp"

#include <fcntl.h>
#include <sys/stat.h>
#include <unistd.h>

#include <array>
#include <cstdio>
#include <string>

#include "common/serial.hpp"
#include "sim/sharded.hpp"
#include "sim/simulator.hpp"

namespace iscope {

namespace {

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
  serial::Save io(w);
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
    serial::Load<CheckpointError> io(body, "checkpoint: ");
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
