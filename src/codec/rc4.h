// RC4 stream cipher.
//
// The THINC prototype encrypts all protocol traffic with RC4 (Section 7):
// as a stream cipher it adds no padding or framing overhead and its per-byte
// cost is tiny, which is why the paper found encryption essentially free.
// This is a from-scratch implementation of the classic KSA + PRGA.
//
// NOTE: RC4 is cryptographically broken by modern standards; it is
// implemented here to reproduce the paper's system, not as a security
// recommendation.
#ifndef THINC_SRC_CODEC_RC4_H_
#define THINC_SRC_CODEC_RC4_H_

#include <cstdint>
#include <span>
#include <vector>

namespace thinc {

class Rc4Cipher {
 public:
  // Key length 1..256 bytes; the paper's setup used 128-bit keys.
  explicit Rc4Cipher(std::span<const uint8_t> key);

  // Encryption and decryption are the same keystream XOR. The cipher is
  // stateful: successive calls continue the keystream, matching its use on
  // a long-lived connection. `in` and `out` must be the same buffer (in-place,
  // as the server and client use it) or not overlap at all.
  void Process(std::span<const uint8_t> in, std::span<uint8_t> out);
  std::vector<uint8_t> Process(std::span<const uint8_t> in);

  // Convenience: returns the next keystream byte (used by tests against
  // published RC4 test vectors).
  uint8_t NextKeystreamByte();

 private:
  uint8_t s_[256];
  uint8_t i_ = 0;
  uint8_t j_ = 0;
};

}  // namespace thinc

#endif  // THINC_SRC_CODEC_RC4_H_
