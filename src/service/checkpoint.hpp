// Versioned binary checkpoint of a running simulation (DESIGN.md Sec. 15).
//
// A checkpoint captures the primary state the next event needs and
// nothing the loader can derive: the event heap in raw vector order
// (restored verbatim -- no re-heapify -- so the resumed pop order is
// bit-identical), every task, the waiting list, the matcher rows (the
// running set, with each task's remaining work and level), energy meter +
// battery accumulators, fault state, and the placement RNG stream.
//
// The codec names no simulator field. Each type that owns checkpointed
// state lists its fields once, in its one `template <class Io> void io(Io&)`
// (ShardedSim, DatacenterSim, and the simulator's four subsystem drivers,
// each called at its place in the wire order), which serial.hpp's Save
// adapter runs to save and its Load<CheckpointError> to load; the reader's
// checks -- identity comparisons, index and enum ranges, finite times,
// count caps, the waiting list and the rows against the task states --
// are arguments of the same calls. The task spec and the timeline event
// are listed once for this format and the wire (task_fields,
// timeline_fields). Everything else -- which task holds each processor, the idle
// pool, counts, flags, per-row tables -- is derived: restore ends in
// DatacenterSim::rebuild_derived(), the routine prepare() also ends with.
// The matcher keeps nothing between calls, so a resumed run's next
// rematch solves exactly as the uninterrupted run's would. Every loaded
// task spec passes validate_task, the rule prepare() and admit() apply.
//
// The restoring process must construct the simulator with the same
// configuration (cluster, scheme, supply, seed, fault plan) it was
// checkpointed under; an identity block guards the obvious mismatches.
// Resume determinism: run-to-completion == run / checkpoint / restore / run
// on the full SimResult, bitwise (tests/test_checkpoint.cpp, which also
// pins the v3 byte layout with committed golden blobs).
#pragma once

#include <cstddef>
#include <cstdint>
#include <string>
#include <vector>

#include "common/error.hpp"

namespace iscope {

class DatacenterSim;
class ShardedSim;

/// A checkpoint file that cannot be restored into this process: bad magic,
/// a format version this build does not speak, or an identity mismatch
/// (different cluster size, scheme, or seed). Truncated or corrupt payloads
/// are also folded into this type so callers handle one failure mode.
class CheckpointError : public Error {
 public:
  explicit CheckpointError(const std::string& what) : Error(what) {}
};

/// "ISCK" little-endian.
inline constexpr std::uint32_t kCheckpointMagic = 0x4b435349u;
/// v3: primary state only. Older versions are refused.
inline constexpr std::uint32_t kCheckpointVersion = 3;

/// CRC-32 (zlib's) of `size` bytes. A checkpoint ends in this checksum of
/// every byte before it, as a little-endian u32, checked right after the
/// magic and version, before any other field is read.
std::uint32_t checkpoint_crc32(const std::uint8_t* data, std::size_t size);

/// Serialize a full checkpoint (magic + version + kind + body + CRC).
std::vector<std::uint8_t> checkpoint_bytes(const DatacenterSim& sim);
std::vector<std::uint8_t> checkpoint_bytes(const ShardedSim& sim);

/// Restore a simulator from checkpoint bytes. The simulator must have been
/// constructed with the same configuration it was checkpointed under, and
/// prepared: an unprepared one is refused with CheckpointError before any
/// byte is read. Throws CheckpointError on bad magic, version skew, a
/// checksum mismatch, identity mismatch, or a corrupt payload; a throw
/// leaves the simulator in the state it had before the call (its
/// checkpoint bytes unchanged).
void restore_from_bytes(DatacenterSim& sim, const std::uint8_t* data,
                        std::size_t size);
void restore_from_bytes(ShardedSim& sim, const std::uint8_t* data,
                        std::size_t size);

/// Durable atomic file write: temp file, fsync, rename, then fsync of the
/// parent directory; the temp file is removed on every failure before the
/// rename. Whole-file read: CheckpointError for anything but a readable
/// regular file.
void write_checkpoint(const std::string& path,
                      const std::vector<std::uint8_t>& blob);
std::vector<std::uint8_t> read_checkpoint(const std::string& path);

}  // namespace iscope
