#ifndef UCQN_EVAL_OP_ID_TABLE_H_
#define UCQN_EVAL_OP_ID_TABLE_H_

#include <cstdint>
#include <cstring>
#include <vector>

namespace ucqn {

// The one hash table behind the operator DAG's id kernels: open
// addressing over fixed-width keys of uint32 ids (a few frontier columns
// or tuple slots), with flat storage only — no allocation per row once
// the buffers have grown to a wave's size, and Reset keeps them.
//
// Two uses share it:
//   - Grouping (wave dedup, anti-join build, head dedup): FindOrAdd hands
//     out dense group ids 0, 1, 2, ... in first-insertion order, which
//     is the first-occurrence order every runtime ledger is keyed on.
//   - Multimap (the hash join's build side): Append chains entries under
//     a group; a group's chain lists its entries in Append order, so
//     duplicate keys come back in insertion (= fetch) order.
//
// Not thread-safe; each operator owns its tables.
class IdTable {
 public:
  static constexpr std::uint32_t kNone = 0xFFFFFFFFu;

  // Empties the table for keys of `width` ids, sized for up to
  // `expected` groups (it grows past that as needed), so a table reused
  // across waves allocates only when a wave outgrows every earlier one.
  void Reset(std::size_t width, std::size_t expected) {
    width_ = width;
    keys_.clear();
    hashes_.clear();
    first_.clear();
    last_.clear();
    next_.clear();
    keys_.reserve(expected * width);
    hashes_.reserve(expected);
    std::size_t capacity = 16;
    while (capacity < 2 * expected) capacity *= 2;
    slots_.assign(capacity, kNone);
  }

  std::size_t width() const { return width_; }
  std::size_t groups() const { return hashes_.size(); }

  // The group of `key` (width() ids), added when new; `*fresh` says which.
  std::uint32_t FindOrAdd(const std::uint32_t* key, bool* fresh) {
    const std::uint32_t hash = Hash(key);
    const std::size_t slot = Probe(key, hash);
    *fresh = slots_[slot] == kNone;
    return *fresh ? Add(key, hash, slot) : slots_[slot];
  }

  // The group of `key`, or kNone.
  std::uint32_t Find(const std::uint32_t* key) const {
    return slots_[Probe(key, Hash(key))];
  }

  // The key group `group` was added with.
  const std::uint32_t* Key(std::uint32_t group) const {
    return keys_.data() + std::size_t{group} * width_;
  }

  // Chains a new entry under `group` and returns its id; entry ids count
  // up from 0 in Append order across all groups.
  std::uint32_t Append(std::uint32_t group) {
    if (first_.size() < hashes_.size()) {  // chains are sized on first use
      first_.resize(hashes_.size(), kNone);
      last_.resize(hashes_.size(), kNone);
    }
    const auto entry = static_cast<std::uint32_t>(next_.size());
    next_.push_back(kNone);
    if (first_[group] == kNone) {
      first_[group] = entry;
    } else {
      next_[last_[group]] = entry;
    }
    last_[group] = entry;
    return entry;
  }

  // Walks a group's chain: First(group), then Next(entry) until kNone.
  std::uint32_t First(std::uint32_t group) const {
    return group < first_.size() ? first_[group] : kNone;
  }
  std::uint32_t Next(std::uint32_t entry) const { return next_[entry]; }

 private:
  // The insert half of FindOrAdd, kept out of its hit path.
  [[gnu::noinline]] std::uint32_t Add(const std::uint32_t* key,
                                      std::uint32_t hash, std::size_t slot) {
    const auto group = static_cast<std::uint32_t>(hashes_.size());
    keys_.insert(keys_.end(), key, key + width_);
    hashes_.push_back(hash);
    slots_[slot] = group;
    if (2 * hashes_.size() > slots_.size()) Grow();
    return group;
  }

  std::uint32_t Hash(const std::uint32_t* key) const {
    std::uint64_t h = 0x9E3779B97F4A7C15ull ^ width_;
    for (std::size_t i = 0; i < width_; ++i) {
      h = (h ^ key[i]) * 0xFF51AFD7ED558CCDull;
      h ^= h >> 32;
    }
    return static_cast<std::uint32_t>(h);
  }

  // The slot holding `key`, or the empty slot where it would go (linear
  // probing; the table is at most half full).
  std::size_t Probe(const std::uint32_t* key, std::uint32_t hash) const {
    const std::size_t mask = slots_.size() - 1;
    for (std::size_t slot = hash & mask;; slot = (slot + 1) & mask) {
      const std::uint32_t group = slots_[slot];
      if (group == kNone) return slot;
      if (hashes_[group] == hash &&
          (width_ == 0 || std::memcmp(Key(group), key,
                                      width_ * sizeof(std::uint32_t)) == 0)) {
        return slot;
      }
    }
  }

  void Grow() {
    slots_.assign(slots_.size() * 2, kNone);
    const std::size_t mask = slots_.size() - 1;
    for (std::uint32_t group = 0; group < hashes_.size(); ++group) {
      std::size_t slot = hashes_[group] & mask;
      while (slots_[slot] != kNone) slot = (slot + 1) & mask;
      slots_[slot] = group;
    }
  }

  std::size_t width_ = 0;
  std::vector<std::uint32_t> keys_;    // width_ ids per group, group-major
  std::vector<std::uint32_t> hashes_;  // per group
  std::vector<std::uint32_t> first_;   // per chained group: head, or kNone
  std::vector<std::uint32_t> last_;    // per chained group: tail, or kNone
  std::vector<std::uint32_t> next_;    // per entry: successor, or kNone
  std::vector<std::uint32_t> slots_;   // power-of-two; group id or kNone
};

}  // namespace ucqn

#endif  // UCQN_EVAL_OP_ID_TABLE_H_
