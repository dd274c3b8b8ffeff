// Zero-copy buffer primitives shared by the whole server stack.
//
// THINC's offscreen awareness (Section 4.1) mandates queue *copy* — not
// move — on pixmap-to-pixmap copies, and the web workload composites every
// page through offscreen pixmaps. Deep-copying full pixel payloads on every
// queue copy, re-copying every encoded frame by value, and shuffling the
// wire byte-by-byte made server-side data movement the scaling bottleneck.
// This header removes it:
//
//   * PixelBuffer — a ref-counted, copy-on-write pixel payload. Cloning a
//     RAW command (the offscreen queue-copy operation) shares one backing
//     allocation; a genuine mutation detaches. The shared storage also
//     carries a small encode-result cache, so commands sharing a payload
//     (clones, broadcast fan-out) encode a given (rect, region, codec)
//     combination exactly once.
//   * ByteBuffer — a ref-counted immutable view of encoded bytes. Frames
//     are encoded once and handed around by reference: scheduler, flush
//     path, send queues, and every viewer of a shared session see the same
//     backing bytes.
//   * FrameArena — a recycling pool of frame slabs; a flush encodes into a
//     recycled slab instead of a fresh allocation once steady state is
//     reached.
//   * SegmentQueue — an iovec-style queue of buffer views that replaces the
//     per-byte std::deque<uint8_t> send buffers; MSS-sized wire segments
//     are sliced out of queued frames without copying.
//
// Everything here is single-threaded, like the simulation. All operations
// are instrumented through BufferStats so benchmarks can report bytes
// memcpy'd, allocation counts, and peak resident payload bytes.
#ifndef THINC_SRC_UTIL_BUFFER_H_
#define THINC_SRC_UTIL_BUFFER_H_

#include <cstdint>
#include <deque>
#include <memory>
#include <span>
#include <string>
#include <utility>
#include <vector>

#include "src/util/pixel.h"

namespace thinc {

// Counters for buffer traffic (single-threaded simulation; plain fields).
struct BufferStats {
  int64_t allocations = 0;       // backing stores created
  int64_t allocated_bytes = 0;   // bytes those stores hold (at tracking time)
  int64_t copies = 0;            // instrumented memcpy events
  int64_t copied_bytes = 0;      // bytes physically copied between buffers
  int64_t shares = 0;            // deep copies avoided by ref-count sharing
  int64_t cow_detaches = 0;      // CoW writes that had to materialize a copy
  int64_t arena_reuses = 0;      // frame slabs recycled instead of allocated
  int64_t raw_encodes = 0;       // RAW payload encodes actually performed
  int64_t encode_charges = 0;    // RAW encode CPU charges paid by a server
                                 // (shared-session viewers that reuse or wait
                                 // for another viewer's encode don't charge)
  int64_t payload_encode_hits = 0;  // encodes served from a payload's cache
  int64_t frame_cache_hits = 0;  // flush-level shared-frame cache hits
  int64_t live_payload_bytes = 0;  // currently resident buffer bytes
  int64_t peak_payload_bytes = 0;  // high-water mark since Reset()

  static BufferStats& Get();
  // Resets all counters; the peak restarts from the current live bytes.
  void Reset();

  void NoteCopy(int64_t bytes) {
    ++copies;
    copied_bytes += bytes;
  }
  void TrackLive(int64_t delta) {
    live_payload_bytes += delta;
    if (live_payload_bytes > peak_payload_bytes) {
      peak_payload_bytes = live_payload_bytes;
    }
  }
};

class ByteBuffer;

// One cached encode result attached to a pixel payload.
struct CachedEncode;

namespace internal {

struct ByteStorage {
  std::vector<uint8_t> bytes;

  ByteStorage();
  ~ByteStorage();
  ByteStorage(const ByteStorage&) = delete;
  ByteStorage& operator=(const ByteStorage&) = delete;

  // Records bytes.size() into the live/peak accounting (diff-updates, so it
  // is safe to call again after the vector grew or was recycled).
  void Track();

 private:
  int64_t tracked_ = 0;
};

struct PixelStorage {
  std::vector<Pixel> pixels;
  // Content identity: unique per backing store, bumped on every mutable
  // access. Encode caches key on it, so a stale entry can never match.
  uint64_t content_id = 0;
  // Encode results for this payload, keyed by (rect origin, region, codec
  // flags, content id). Shared by every command referencing the payload.
  std::vector<std::pair<std::string, std::shared_ptr<const CachedEncode>>> encodes;

  explicit PixelStorage(std::vector<Pixel>&& px);
  ~PixelStorage();
  PixelStorage(const PixelStorage&) = delete;
  PixelStorage& operator=(const PixelStorage&) = delete;

  // Diff-updates the live/peak accounting after the vector was resized.
  void Retrack();

 private:
  int64_t tracked_ = 0;
};

}  // namespace internal

// Immutable, ref-counted view of a byte range. Copying the handle is a
// ref-count bump; Slice() shares the backing store.
class ByteBuffer {
 public:
  ByteBuffer() = default;

  // Allocates a backing store and copies `data` into it (counted).
  static ByteBuffer Copy(std::span<const uint8_t> data);
  // Takes ownership of `bytes` without copying.
  static ByteBuffer Adopt(std::vector<uint8_t>&& bytes);

  const uint8_t* data() const {
    return storage_ ? storage_->bytes.data() + offset_ : nullptr;
  }
  size_t size() const { return size_; }
  bool empty() const { return size_ == 0; }
  const uint8_t* begin() const { return data(); }
  const uint8_t* end() const { return data() + size_; }
  uint8_t operator[](size_t i) const { return data()[i]; }
  std::span<const uint8_t> view() const { return {data(), size_}; }
  operator std::span<const uint8_t>() const { return view(); }

  // Sub-view sharing the backing store.
  ByteBuffer Slice(size_t offset, size_t length) const;
  // Another handle to the same bytes. This is what makes "encode once, send
  // to N viewers" free.
  ByteBuffer Share() const;

 private:
  friend class FrameArena;
  friend class WireWriter;
  ByteBuffer(std::shared_ptr<const internal::ByteStorage> storage, size_t offset,
             size_t size)
      : storage_(std::move(storage)), offset_(offset), size_(size) {}

  std::shared_ptr<const internal::ByteStorage> storage_;
  size_t offset_ = 0;
  size_t size_ = 0;
};

struct CachedEncode {
  ByteBuffer frame;   // complete wire frame
  double cpu_cost = 0;  // reference-speed cost of the original encode
};

// Ref-counted copy-on-write pixel payload.
class PixelBuffer {
 public:
  PixelBuffer() = default;
  explicit PixelBuffer(std::vector<Pixel>&& pixels);
  static PixelBuffer Copy(std::span<const Pixel> pixels);

  size_t size() const { return storage_ ? storage_->pixels.size() : 0; }
  bool empty() const { return size() == 0; }
  const Pixel* data() const { return storage_ ? storage_->pixels.data() : nullptr; }
  std::span<const Pixel> view() const { return {data(), size()}; }

  // Cheap ref-count share. The offscreen queue-copy path clones through
  // this.
  PixelBuffer Share() const;

  // Mutable access: detaches from co-owners first (copy-on-write) and
  // always assigns a fresh content id, so cached encodings keyed on the old
  // identity can never be served for the new content.
  std::vector<Pixel>& Mutate();

  // Appends pixels (CoW: detaches first if the payload is shared).
  void Append(std::span<const Pixel> extra);

  uint64_t content_id() const { return storage_ ? storage_->content_id : 0; }
  bool shared() const { return storage_ && storage_.use_count() > 1; }

  // Payload-attached encode cache: commands sharing this payload encode a
  // given key exactly once; every hit returns identical bytes AND the
  // identical simulated CPU cost, so reuse never perturbs timing.
  std::shared_ptr<const CachedEncode> LookupEncode(const std::string& key) const;
  void StoreEncode(const std::string& key, ByteBuffer frame, double cpu_cost) const;

 private:
  std::shared_ptr<internal::PixelStorage> storage_;
};

// Recycling pool of frame slabs. A slab is reusable once every ByteBuffer
// referencing it has been released (the pool holds the last reference).
class FrameArena {
 public:
  // Returns an empty writable slab — recycled if one is free.
  std::shared_ptr<internal::ByteStorage> Acquire();
  size_t slab_count() const { return slabs_.size(); }

 private:
  std::vector<std::shared_ptr<internal::ByteStorage>> slabs_;
};

// Iovec-style FIFO of buffer views with byte-granular consumption. Popping
// slices the head segment without copying whenever it satisfies the
// request; only a pop spanning segments gathers.
class SegmentQueue {
 public:
  // Enqueues a view (zero-copy).
  void Append(ByteBuffer data);
  // Enqueues a copy of `data` (for callers that only have a transient span).
  void AppendCopy(std::span<const uint8_t> data);
  // Puts `data` back at the front (un-consumed remainder of a failed send).
  void Prepend(ByteBuffer data);

  size_t size() const { return total_; }
  bool empty() const { return total_ == 0; }
  // Un-consumed remainder of the head segment (0 when empty). A PopUpTo of
  // at most this many bytes is guaranteed to slice, never gather — what a
  // copy-free forwarder (Relay) caps its pops at.
  size_t head_segment_size() const {
    return segments_.empty()
               ? 0
               : segments_.front().data.size() - segments_.front().offset;
  }
  void Clear();

  // Dequeues exactly min(n, size()) bytes.
  ByteBuffer PopUpTo(size_t n);

 private:
  struct Segment {
    ByteBuffer data;
    size_t offset = 0;  // bytes already consumed
  };
  std::deque<Segment> segments_;
  size_t total_ = 0;
};

// Bounded shared cache of encoded frames, keyed by command identity. A
// shared-session host hands one to every viewer's server so a frame
// encoded for one viewer is reused — bytes and all — for the others.
//
// Because the simulated encode takes virtual time, the cache also tracks
// encodes in flight: a server that misses but finds another server already
// encoding the same key waits for that encode's completion instead of
// starting a duplicate (the single-encoder behaviour of a real shared
// server).
class ByteBufferCache {
 public:
  explicit ByteBufferCache(size_t capacity = 128) : capacity_(capacity) {}

  // Returns the cached frame, or an empty buffer on miss.
  ByteBuffer Lookup(const std::string& key);
  // Stores the finished frame and retires any in-flight marker for the key.
  void Store(const std::string& key, ByteBuffer frame);
  size_t size() const { return entries_.size(); }

  // In-flight registry (times are sim-time ticks; the cache is agnostic).
  void NoteEncodeStarted(const std::string& key, int64_t ready_time);
  // Completion time of an in-flight encode for `key`, or -1 if none.
  int64_t PendingEncodeReady(const std::string& key) const;

 private:
  size_t capacity_;
  // Insertion-ordered FIFO eviction; entries are small (handles).
  std::deque<std::pair<std::string, ByteBuffer>> entries_;
  std::deque<std::pair<std::string, int64_t>> in_flight_;
};

}  // namespace thinc

#endif  // THINC_SRC_UTIL_BUFFER_H_
