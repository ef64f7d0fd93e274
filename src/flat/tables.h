// Node / edge table records — GraphFlat's raw inputs (§3.2.1):
// "Assume that we take a node table and an edge table as input. The node
//  table consists of node ids and node features, while the edge table
//  consists of source node ids, destination node ids and edge features."

#pragma once

#include <cstdint>
#include <string>
#include <vector>

#include "common/status.h"

namespace agl::flat {

using NodeId = uint64_t;

/// One row of the node table.
struct NodeRecord {
  NodeId id = 0;
  std::vector<float> features;
  /// Class label; -1 means unlabeled.
  int64_t label = -1;
  /// Optional multi-label target (empty if unused).
  std::vector<float> multilabel;

  std::string Serialize() const;
  static agl::Result<NodeRecord> Parse(const std::string& bytes);

  bool operator==(const NodeRecord& o) const {
    return id == o.id && features == o.features && label == o.label &&
           multilabel == o.multilabel;
  }
};

/// One row of the edge table (directed src -> dst).
struct EdgeRecord {
  NodeId src = 0;
  NodeId dst = 0;
  float weight = 1.f;
  std::vector<float> features;

  std::string Serialize() const;
  static agl::Result<EdgeRecord> Parse(const std::string& bytes);

  bool operator==(const EdgeRecord& o) const {
    return src == o.src && dst == o.dst && weight == o.weight &&
           features == o.features;
  }
};

/// Parses a shuffle key back to the node id it was written from with
/// std::to_string. kCorruption for an empty key, a sign, any non-digit,
/// trailing bytes or a value outside NodeId's range — keys arrive through
/// the exchange from other shards and processes, so a bad one must surface
/// as a Status, never as an exception or a silently wrapped id.
agl::Result<NodeId> ParseNodeKey(const std::string& key);

}  // namespace agl::flat
