#include "store/gc.h"

#include <algorithm>

#include "postree/node.h"

namespace forkbase {

namespace {

// Appends the chunk ids directly referenced by `chunk` to the frontier.
Status ExpandReferences(const Chunk& chunk, std::vector<Hash256>* frontier) {
  if (chunk.type() != ChunkType::kFNode) {
    return AppendTreeChildren(chunk, frontier);
  }
  FB_ASSIGN_OR_RETURN(FNode node, FNode::FromChunk(chunk));
  frontier->insert(frontier->end(), node.bases.begin(), node.bases.end());
  if (node.value.is_container()) frontier->push_back(node.value.root());
  return Status::OK();
}

// Every branch head of every key, unsorted. A key whose branches were all
// deleted contributes nothing (that is exactly the state GC reclaims).
StatusOr<std::vector<Hash256>> CollectRoots(const ForkBase& db) {
  std::vector<Hash256> roots;
  for (const auto& key : db.ListKeys()) {
    auto heads = db.Latest(key);
    if (!heads.ok()) {
      if (heads.status().IsNotFound()) continue;  // no branches left
      return heads.status();
    }
    for (const auto& [branch, uid] : *heads) {
      (void)branch;
      roots.push_back(uid);
    }
  }
  return roots;
}

}  // namespace

Status AppendTreeChildren(const Chunk& chunk, std::vector<Hash256>* out) {
  switch (chunk.type()) {
    case ChunkType::kMeta: {
      std::vector<IndexEntry> children;
      if (!ParseIndexEntries(chunk.payload(), &children)) {
        return Status::Corruption("malformed index node");
      }
      for (const auto& c : children) out->push_back(c.child);
      return Status::OK();
    }
    case ChunkType::kTableMeta: {
      // Last 32 payload bytes are the rows root (see FTable::WriteHeader).
      Slice payload = chunk.payload();
      if (payload.size() < 32) {
        return Status::Corruption("malformed table header");
      }
      Hash256 rows_root;
      std::memcpy(rows_root.bytes.data(),
                  payload.data() + payload.size() - 32, 32);
      out->push_back(rows_root);
      return Status::OK();
    }
    default:
      return Status::OK();  // leaves, cells and FNodes hold no tree edges
  }
}

StatusOr<std::unordered_set<Hash256, Hash256Hasher>> MarkLive(
    const ChunkStore& store, const std::vector<Hash256>& roots,
    const std::unordered_set<Hash256, Hash256Hasher>* exclude,
    const std::function<Status(const Chunk&)>& visit) {
  std::unordered_set<Hash256, Hash256Hasher> live;
  // BFS in waves: each wave's unseen ids go through one batched sweep, so
  // pool helpers read the next runs while the caller expands the references
  // of the runs already read, in order — the mark phase streams instead of
  // stalling on one giant read per wave.
  std::vector<Hash256> wave(roots.begin(), roots.end());
  while (!wave.empty()) {
    std::vector<Hash256> to_load;
    to_load.reserve(wave.size());
    for (const auto& id : wave) {
      if (exclude && exclude->count(id)) continue;
      if (live.insert(id).second) to_load.push_back(id);
    }
    if (to_load.empty()) break;
    wave.clear();
    FB_RETURN_IF_ERROR(ForEachChunkBatch(
        store, to_load,
        [&](size_t, StatusOr<Chunk>& chunk_or) -> Status {
          if (!chunk_or.ok()) return chunk_or.status();
          FB_RETURN_IF_ERROR(ExpandReferences(*chunk_or, &wave));
          if (visit) return visit(*chunk_or);
          return Status::OK();
        }));
  }
  return live;
}

size_t ExpandPhysicalBases(const ChunkStore& store,
                           std::unordered_set<Hash256, Hash256Hasher>* live) {
  // Chase base edges to a fixpoint: a base can itself be chain-resident.
  // The wave starts as the whole live set (one cheap GetDeltaBase probe per
  // id — no chunk bodies are read) and shrinks to just-added ids after.
  size_t added = 0;
  std::vector<Hash256> wave(live->begin(), live->end());
  while (!wave.empty()) {
    std::vector<Hash256> next;
    for (const Hash256& id : wave) {
      Hash256 base;
      if (!store.GetDeltaBase(id, &base)) continue;
      if (live->insert(base).second) {
        ++added;
        next.push_back(base);
      }
    }
    wave = std::move(next);
  }
  return added;
}

StatusOr<GcStats> CopyLive(const ForkBase& db, ChunkStore* dst) {
  const ChunkStore& src = *db.store();
  FB_ASSIGN_OR_RETURN(std::vector<Hash256> roots, CollectRoots(db));

  GcStats stats;
  stats.roots = roots.size();
  // Copy during the mark itself: each live chunk is already in memory when
  // the walk expands it, so the visitor batches it straight into the
  // destination — the live set is read from the source exactly once.
  std::vector<Chunk> batch;
  batch.reserve(kChunkSweepBatch);
  auto flush_batch = [&]() -> Status {
    if (batch.empty()) return Status::OK();
    FB_RETURN_IF_ERROR(dst->PutMany(batch));
    batch.clear();
    return Status::OK();
  };
  FB_ASSIGN_OR_RETURN(
      auto live,
      MarkLive(src, roots, /*exclude=*/nullptr,
               [&](const Chunk& chunk) -> Status {
                 ++stats.live_chunks;
                 stats.live_bytes += chunk.size();
                 batch.push_back(chunk);
                 if (batch.size() >= kChunkSweepBatch) return flush_batch();
                 return Status::OK();
               }));
  (void)live;
  FB_RETURN_IF_ERROR(flush_batch());
  // Source totals via the index walk — no chunk bodies re-read.
  src.ForEachId([&stats](const Hash256&, uint64_t size) {
    ++stats.total_chunks;
    stats.total_bytes += size;
  });
  return stats;
}

StatusOr<std::vector<Hash256>> FindGarbage(const ForkBase& db) {
  FB_ASSIGN_OR_RETURN(std::vector<Hash256> roots, CollectRoots(db));
  FB_ASSIGN_OR_RETURN(auto live, MarkLive(*db.store(), roots));
  // A chain base under a live dependent is not garbage even when logically
  // unreachable: the store needs its record to resolve reads.
  ExpandPhysicalBases(*db.store(), &live);
  std::vector<Hash256> garbage;
  db.store()->ForEachId([&](const Hash256& id, uint64_t) {
    if (!live.count(id)) garbage.push_back(id);
  });
  return garbage;
}

StatusOr<GcStats> SweepInPlace(ForkBase* db, const SweepOptions& options) {
  ChunkStore* store = db->store();
  if (!store->SupportsErase()) {
    return Status::Unimplemented(
        "store cannot erase in place; fall back to copy collection "
        "(CopyLive into a fresh store)");
  }
  const size_t erase_batch = std::max<size_t>(1, options.erase_batch);

  // Pin before anything else: every Put from here on — dedup hits included
  // — is recorded, so a chunk re-put after the snapshot below can never be
  // erased by this sweep. The sweep scope makes re-pointing publishes
  // (BranchFromVersion, sync fast-forwards) validate + pin their target's
  // closure for the duration (see PinReachableForSweep in forkbase.cc).
  ChunkStore::PutPin pin(*store);
  ForkBase::SweepScope sweep_scope(db);

  // Epoch barrier: writers hold the write lease (shared) across their whole
  // build→commit→publish span. Acquiring it exclusively once and releasing
  // immediately means every writer that predates the pin has published its
  // head (visible to the root collection below); any later put is
  // pin-visible. Writers are blocked only for this instant, not the mark.
  { auto barrier = db->ExcludeWriters(); }

  // Candidate snapshot + totals: a pure index walk, no chunk reads.
  std::vector<std::pair<Hash256, uint64_t>> candidates;
  GcStats stats;
  store->ForEachId([&](const Hash256& id, uint64_t size) {
    candidates.emplace_back(id, size);
    ++stats.total_chunks;
    stats.total_bytes += size;
  });

  // Mark. Live accounting is the candidate ∩ live intersection so the
  // total/live pair describes one snapshot (see GcStats).
  FB_ASSIGN_OR_RETURN(std::vector<Hash256> roots, CollectRoots(*db));
  stats.roots = roots.size();
  FB_ASSIGN_OR_RETURN(auto live, MarkLive(*store, roots));
  // Physical retention: a delta base stays while any live dependent needs
  // it, even when nothing logically reachable references it. Erasing one
  // anyway would be survivable — the store flattens dependents at erase
  // time — but that backstop turns a sweep into a rewrite storm; sparing
  // the base is both cheaper and the accounting-honest choice.
  ExpandPhysicalBases(*store, &live);
  std::vector<std::pair<Hash256, uint64_t>> garbage;
  for (const auto& [id, size] : candidates) {
    if (live.count(id)) {
      ++stats.live_chunks;
      stats.live_bytes += size;
    } else {
      garbage.emplace_back(id, size);
    }
  }

  // Erase in batches, each under the exclusive lease so no writer can
  // publish between a batch's safety checks and its erase. Between batches
  // writers run freely; anything they put is pinned, anything they
  // re-point a branch at is caught by the head re-check below.
  std::vector<Hash256> head_sig = std::move(roots);
  std::sort(head_sig.begin(), head_sig.end());
  std::vector<Hash256> batch;
  batch.reserve(erase_batch);
  for (size_t start = 0; start < garbage.size(); start += erase_batch) {
    const size_t end = std::min(garbage.size(), start + erase_batch);
    auto writers_excluded = db->ExcludeWriters();

    // Branch mutations (BranchFromVersion, sync pushes) can resurrect
    // history the mark saw as garbage without putting a single chunk. The
    // heads changed ⇒ delta-mark the new roots with the known live set
    // excluded; the walk touches only the newly reachable chunks.
    FB_ASSIGN_OR_RETURN(std::vector<Hash256> now_roots, CollectRoots(*db));
    std::sort(now_roots.begin(), now_roots.end());
    if (now_roots != head_sig) {
      FB_ASSIGN_OR_RETURN(auto delta, MarkLive(*store, now_roots, &live));
      live.insert(delta.begin(), delta.end());
      // Resurrected chunks may be chain-resident: re-expand so their bases
      // leave the erase queue too.
      ExpandPhysicalBases(*store, &live);
      head_sig = std::move(now_roots);
    }

    batch.clear();
    uint64_t batch_bytes = 0;
    for (size_t i = start; i < end; ++i) {
      const auto& [id, size] = garbage[i];
      if (live.count(id)) continue;  // rescued by a head re-check
      // ANY pin spares the id, not just this sweep's: an in-flight bundle
      // upload's pin quarantines its not-yet-published chunks, and
      // PinReachableForSweep marks resurrected closures here too. (A put
      // that lands strictly AFTER this batch's erase simply re-inserts
      // the bytes fresh — content addressing makes that safe.)
      if (store->PutPinned(id)) {
        ++stats.pinned_skipped;
        continue;
      }
      batch.push_back(id);
      batch_bytes += size;
    }
    if (batch.empty()) continue;
    FB_RETURN_IF_ERROR(store->Erase(batch));
    stats.swept_chunks += batch.size();
    stats.swept_bytes += batch_bytes;
  }

  db->RecordGcSweep(stats.swept_chunks, stats.swept_bytes);
  if (options.wait_for_maintenance) {
    // The erases above made segments dead-heavy; their rewrites may still
    // be running on the maintenance pool. Quiesce so space_used() reflects
    // the reclaim when we return.
    db->WaitForMaintenance();
  }
  return stats;
}

}  // namespace forkbase
