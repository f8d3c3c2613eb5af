// ThreadBackend: replicated-memory emulation on real OS threads.
//
// This is the "emulate SCRAMNet via shared memory" substitution path: each
// emulated node owns a bank of std::atomic words; a write is applied to the
// writer's own bank first and then to every other bank. All stores/loads
// are seq_cst, which gives the two properties the BillBoard Protocol needs
// from the hardware:
//   * per-sender FIFO: another node that observes a later write from sender
//     S also observes all earlier writes from S;
//   * single-writer words need no locks.
// It is deliberately *stronger* than real SCRAMNet (no propagation delay);
// DelayedThreadBackend in this header adds an asynchronous per-node applier
// that restores the delay/non-coherence for stress tests.
#pragma once

#include <atomic>
#include <condition_variable>
#include <deque>
#include <memory>
#include <mutex>
#include <thread>
#include <vector>

#include "scramnet/port.h"

namespace scrnet::scramnet {

class ThreadBackend {
 public:
  ThreadBackend(u32 nodes, u32 bank_words);

  u32 nodes() const { return nodes_; }
  u32 bank_words() const { return bank_words_; }

  void write(u32 src_node, u32 word_addr, u32 value);
  void write_block(u32 src_node, u32 word_addr, std::span<const u32> words);
  u32 read(u32 node, u32 word_addr) const;
  void read_block(u32 node, u32 word_addr, std::span<u32> out) const;

 private:
  u32 nodes_;
  u32 bank_words_;
  // One flat array per node; atomics sized once in the constructor.
  std::vector<std::unique_ptr<std::atomic<u32>[]>> banks_;
};

/// MemPort over ThreadBackend. Timing hooks are no-ops (real threads run at
/// real speed); poll_pause yields the OS thread.
class ThreadPort final : public MemPort {
 public:
  ThreadPort(ThreadBackend& backend, u32 node) : b_(backend), node_(node) {}

  u32 bank_words() const override { return b_.bank_words(); }

  void write_u32(u32 word_addr, u32 value) override { b_.write(node_, word_addr, value); }
  u32 read_u32(u32 word_addr) override { return b_.read(node_, word_addr); }
  void write_block(u32 word_addr, std::span<const u32> words) override {
    b_.write_block(node_, word_addr, words);
  }
  void read_block(u32 word_addr, std::span<u32> out) override {
    b_.read_block(node_, word_addr, out);
  }
  void poll_pause() override { std::this_thread::yield(); }
  void cpu_delay(SimTime) override {}

 private:
  ThreadBackend& b_;
  u32 node_;
};

/// DelayedThreadBackend: like ThreadBackend but remote banks are updated by
/// a per-node applier thread draining per-sender FIFO queues, so remote
/// visibility is asynchronous and different nodes can observe concurrent
/// writers in different orders -- the real ring's non-coherence.
class DelayedThreadBackend {
 public:
  DelayedThreadBackend(u32 nodes, u32 bank_words);
  ~DelayedThreadBackend();

  DelayedThreadBackend(const DelayedThreadBackend&) = delete;
  DelayedThreadBackend& operator=(const DelayedThreadBackend&) = delete;

  u32 nodes() const { return nodes_; }
  u32 bank_words() const { return bank_words_; }

  void write(u32 src_node, u32 word_addr, u32 value);
  void write_block(u32 src_node, u32 word_addr, std::span<const u32> words);
  u32 read(u32 node, u32 word_addr) const;
  void read_block(u32 node, u32 word_addr, std::span<u32> out) const;

  /// Block until every queued write has been applied everywhere.
  void quiesce();

 private:
  struct Update {
    u32 addr;
    std::vector<u32> words;
  };
  struct NodeApplier {
    std::mutex mu;
    std::condition_variable cv;
    std::deque<Update> q;
    bool stop = false;
    std::thread thread;
    std::atomic<u64> enqueued{0};
    std::atomic<u64> applied{0};
  };

  void applier_main(u32 node);

  u32 nodes_;
  u32 bank_words_;
  std::vector<std::unique_ptr<std::atomic<u32>[]>> banks_;
  std::vector<std::unique_ptr<NodeApplier>> appliers_;
};

/// MemPort over DelayedThreadBackend.
class DelayedThreadPort final : public MemPort {
 public:
  DelayedThreadPort(DelayedThreadBackend& backend, u32 node) : b_(backend), node_(node) {}

  u32 bank_words() const override { return b_.bank_words(); }

  void write_u32(u32 word_addr, u32 value) override { b_.write(node_, word_addr, value); }
  u32 read_u32(u32 word_addr) override { return b_.read(node_, word_addr); }
  void write_block(u32 word_addr, std::span<const u32> words) override {
    b_.write_block(node_, word_addr, words);
  }
  void read_block(u32 word_addr, std::span<u32> out) override {
    b_.read_block(node_, word_addr, out);
  }
  void fence() override { b_.quiesce(); }
  void poll_pause() override { std::this_thread::yield(); }
  void cpu_delay(SimTime) override {}

 private:
  DelayedThreadBackend& b_;
  u32 node_;
};

}  // namespace scrnet::scramnet
