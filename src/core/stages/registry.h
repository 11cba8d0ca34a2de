// String -> stage-factory registry: the seam that lets ablation switches,
// the CLI (`volcast_sim --policy grouping=greedy_iou`) and future policy
// experiments select pipeline implementations by name without touching
// session code.
//
// Built-in policies are registered centrally in registry.cpp (a static
// library drops per-TU self-registration objects, so lazy central
// registration is the only scheme that survives linking); new policies
// register through PolicyRegistry::add at startup or test setup.
#pragma once

#include <array>
#include <functional>
#include <map>
#include <memory>
#include <optional>
#include <string>
#include <string_view>
#include <vector>

#include "core/stages/stage.h"

namespace volcast::core {

struct SessionConfig;

class PolicyRegistry {
 public:
  using Factory =
      std::function<std::unique_ptr<Stage>(const SessionConfig&)>;

  /// The process-wide registry, built-ins pre-registered.
  static PolicyRegistry& instance();

  /// Registers (or replaces) `name` for the given pipeline slot.
  void add(StageKind kind, std::string name, Factory factory);

  [[nodiscard]] bool contains(StageKind kind, const std::string& name) const;

  /// Instantiates a registered policy; throws std::invalid_argument naming
  /// the slot and the registered alternatives on an unknown name.
  [[nodiscard]] std::unique_ptr<Stage> create(StageKind kind,
                                              const std::string& name,
                                              const SessionConfig& c) const;

  /// Registered names for one slot, sorted (for --help and error text).
  [[nodiscard]] std::vector<std::string> names(StageKind kind) const;

 private:
  PolicyRegistry();

  std::array<std::map<std::string, Factory>, kStageKindCount> slots_;
};

/// "grouping" -> StageKind::kGrouping, etc.; nullopt on unknown text.
[[nodiscard]] std::optional<StageKind> parse_stage_kind(std::string_view text);

/// The policy name each ablation switch in `c` selects for `kind` (e.g.
/// enable_multicast=false forces grouping="unicast_only").
[[nodiscard]] std::string default_policy(StageKind kind,
                                         const SessionConfig& c);

/// Assembles the eight-stage pipeline, execution order fixed: defaults from
/// the ablation switches, then SessionConfig::policy_overrides applied on
/// top. Throws std::invalid_argument on an unknown slot or policy name.
[[nodiscard]] std::vector<std::unique_ptr<Stage>> build_pipeline(
    const SessionConfig& c);

}  // namespace volcast::core
