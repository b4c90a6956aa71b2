// SerialLeafWalk — the reference leaf walk of a POS-Tree, for tests and
// benches.
//
// A depth-first descent on the calling thread with one scalar Get per node:
// the plainest way to visit a tree's leaves in order. Tests check
// PosTree::WalkLeaves and every walk built on it (scans, range reads,
// splices, the table row walk) against it, and benches use it as the serial
// side of their scan pairs. It shares only node parsing with the code under
// test, and it fails where that code must fail, with the same error class
// and message prefix:
//   * a Get error, as returned;
//   * "malformed index node" for an index node that does not parse or is
//     empty;
//   * "leaves at multiple depths" for a non-index chunk above the leaf
//     level (the depth of the leftmost leaf);
//   * "expected leaf chunk, got T" for a non-leaf chunk at the leaf level;
//   * "malformed leaf payload" (SerialScan) for a leaf that does not parse.
#ifndef FORKBASE_TESTING_SERIAL_WALK_H_
#define FORKBASE_TESTING_SERIAL_WALK_H_

#include <functional>

#include "chunk/chunk_store.h"
#include "postree/node.h"

namespace forkbase {

/// Visits every leaf of the tree rooted at `root`, in order. A non-OK
/// status from `visit` stops the walk and is returned.
Status SerialLeafWalk(const ChunkStore& store, const Hash256& root,
                      const std::function<Status(const Chunk& leaf)>& visit);

/// SerialLeafWalk with each leaf parsed: fn(entry) for every entry of every
/// non-blob leaf, in order.
Status SerialScan(const ChunkStore& store, const Hash256& root,
                  const std::function<Status(const EntryView&)>& fn);

}  // namespace forkbase

#endif  // FORKBASE_TESTING_SERIAL_WALK_H_
