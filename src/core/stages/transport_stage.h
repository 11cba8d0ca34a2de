// Pipeline stage 6: MAC scheduling and delivery. Turns each AP's group
// plan into airtime, queues each frame's arrival at its player (whole or
// lost) through the decode model, spends prefetch credit, accounts
// viewport-prediction misses against ground truth, then advances every
// client player.
//
// With a wire policy (fec / nack / hybrid) each scheduled (user, frame)
// additionally runs through the packet wire (transport/wire.h): the frame
// is packetized, packets are lost per-user from the shared multicast
// transmission, and FEC / NACK recovery races the frame deadline. Frames
// whose tiles miss the deadline degrade through the player's
// loss-concealment path. The default "mac" policy (kGoodput) bypasses the
// wire entirely and is bit-identical to the pre-wire stage.
#pragma once

#include "core/stages/stage.h"
#include "transport/wire.h"

namespace volcast::core {

class TransportStage final : public Stage {
 public:
  explicit TransportStage(
      transport::TransportPolicy policy = transport::TransportPolicy::kGoodput)
      : policy_(policy) {}

  [[nodiscard]] StageKind kind() const noexcept override {
    return StageKind::kTransport;
  }
  [[nodiscard]] std::string_view name() const noexcept override {
    // The legacy goodput model keeps its historical registry name.
    return policy_ == transport::TransportPolicy::kGoodput
               ? "mac"
               : transport::to_string(policy_);
  }
  void run(SessionState& state, TickContext& ctx) override;

 private:
  transport::TransportPolicy policy_;
};

}  // namespace volcast::core
