//===- Algorithms.cpp - Graph algorithms ------------------------------------===//
//
// Part of the dyndist project.
//
//===----------------------------------------------------------------------===//
//
// All traversals run over the graph's dense slot indices with epoch-stamped
// thread-local scratch buffers: a BFS allocates nothing once the scratch has
// grown to the graph's slot-table size, and "visited" is one stamp compare
// instead of a map lookup. diameter()'s bit-parallel fringe BFS keeps its
// own per-thread words, zeroed per batch. The public map-returning wrappers
// materialize their results from the scratch, preserving the original
// (ascending, deterministic) output contracts byte for byte.
//
//===----------------------------------------------------------------------===//

#include "dyndist/graph/Algorithms.h"

#include <algorithm>

using namespace dyndist;

namespace {

/// Reusable per-thread traversal state, indexed by graph slot. Epoch
/// stamping makes "clear" an increment; the arrays are only ever resized
/// upward (thread-local, so sweeps sharded by SweepRunner do not share it).
struct BfsScratch {
  std::vector<uint32_t> Stamp;  ///< Slot visited iff Stamp[S] == Epoch.
  std::vector<uint64_t> Dist;   ///< Hop distance, valid when stamped.
  std::vector<uint32_t> Parent; ///< Parent slot, valid when stamped.
  std::vector<uint32_t> Order;  ///< Stamped slots in discovery order.
  uint32_t Epoch = 0;

  /// Starts a fresh traversal over \p G; invalidates previous results.
  void begin(const Graph &G) {
    size_t N = G.slotTableSize();
    if (Stamp.size() < N) {
      Stamp.resize(N, 0);
      Dist.resize(N);
      Parent.resize(N);
    }
    if (++Epoch == 0) { // Stamp wrap-around: reset the array once.
      std::fill(Stamp.begin(), Stamp.end(), 0u);
      Epoch = 1;
    }
    Order.clear();
  }

  bool visited(uint32_t S) const { return Stamp[S] == Epoch; }

  void visit(uint32_t S, uint64_t D, uint32_t P) {
    Stamp[S] = Epoch;
    Dist[S] = D;
    Parent[S] = P;
    Order.push_back(S);
  }
};

thread_local BfsScratch TLScratch;

/// Dense BFS from \p Source. Fills \p S (distances, parents, discovery
/// order) and returns the number of reachable nodes, 0 when Source is
/// unknown. Neighbor expansion ascends by id, so discovery order — and
/// therefore every derived output — is deterministic.
size_t bfsDense(const Graph &G, ProcessId Source, BfsScratch &S) {
  S.begin(G);
  uint32_t Src = G.slotOf(Source);
  if (Src == Graph::NoSlot)
    return 0;
  S.visit(Src, 0, Src);
  for (size_t Head = 0; Head != S.Order.size(); ++Head) {
    uint32_t Cur = S.Order[Head];
    uint64_t D = S.Dist[Cur];
    for (ProcessId N : G.slotNeighbors(Cur)) {
      uint32_t NS = G.slotOf(N);
      if (!S.visited(NS))
        S.visit(NS, D + 1, Cur);
    }
  }
  return S.Order.size();
}

/// Per-thread state of the bit-parallel fringe BFS, indexed by graph slot:
/// bit K of a word stands for source K of the current batch. Between
/// batches every Visit and Next word is zero.
struct FringeScratch {
  std::vector<uint64_t> Seen;  ///< Sources that have reached the slot.
  std::vector<uint64_t> Visit; ///< Sources whose frontier holds the slot.
  std::vector<uint64_t> Next;  ///< Sources that reach the slot next level.
  std::vector<uint32_t> Frontier, NextFrontier;

  void begin(const Graph &G) {
    size_t N = G.slotTableSize();
    if (Seen.size() < N) {
      Seen.resize(N);
      Visit.resize(N, 0);
      Next.resize(N, 0);
    }
  }
};

thread_local FringeScratch TLFringe;

/// Largest eccentricity among the \p Count (<= 64) slots at \p Sources of a
/// connected graph, by one multi-source BFS in which each source owns one
/// bit (MS-BFS, Then et al., VLDB 2014). Only frontier slots are expanded,
/// so the batch visits no more than its separate BFSes would; the answer is
/// the number of levels that still discover something.
uint64_t batchEccentricity(const Graph &G, const uint32_t *Sources,
                           size_t Count, FringeScratch &F) {
  std::fill(F.Seen.begin(), F.Seen.begin() + G.slotTableSize(), 0);
  F.Frontier.clear();
  for (size_t K = 0; K != Count; ++K) {
    uint32_t Src = Sources[K];
    F.Seen[Src] = F.Visit[Src] = uint64_t(1) << K;
    F.Frontier.push_back(Src);
  }
  uint64_t Levels = 0;
  while (true) {
    F.NextFrontier.clear();
    for (uint32_t V : F.Frontier) {
      uint64_t Bits = F.Visit[V];
      F.Visit[V] = 0;
      for (ProcessId Nbr : G.slotNeighbors(V)) {
        uint32_t W = G.slotOf(Nbr);
        uint64_t New = Bits & ~F.Seen[W];
        if (New == 0)
          continue;
        if (F.Next[W] == 0)
          F.NextFrontier.push_back(W);
        F.Next[W] |= New;
        F.Seen[W] |= New;
      }
    }
    if (F.NextFrontier.empty())
      return Levels;
    ++Levels;
    std::swap(F.Visit, F.Next); // Visit was cleared slot by slot above.
    std::swap(F.Frontier, F.NextFrontier);
  }
}

} // namespace

std::map<ProcessId, uint64_t> dyndist::bfsDistances(const Graph &G,
                                                    ProcessId Source) {
  BfsScratch &S = TLScratch;
  bfsDense(G, Source, S);
  std::map<ProcessId, uint64_t> Dist;
  for (uint32_t Slot : S.Order)
    Dist.emplace(G.slotId(Slot), S.Dist[Slot]);
  return Dist;
}

bool dyndist::isConnected(const Graph &G) {
  if (G.nodeCount() == 0)
    return true;
  // Early-exit by count: no distance map is materialized; the BFS itself
  // is the visited counter.
  return bfsDense(G, G.nodesView().front(), TLScratch) == G.nodeCount();
}

std::vector<std::vector<ProcessId>>
dyndist::connectedComponents(const Graph &G) {
  std::vector<std::vector<ProcessId>> Components;
  BfsScratch &S = TLScratch;
  S.begin(G); // One epoch spans the whole sweep.
  for (ProcessId Root : G.nodesView()) {
    uint32_t RS = G.slotOf(Root);
    if (S.visited(RS))
      continue;
    // BFS the component, appending to the shared discovery order.
    size_t First = S.Order.size();
    S.visit(RS, 0, RS);
    for (size_t Head = First; Head != S.Order.size(); ++Head) {
      uint32_t Cur = S.Order[Head];
      for (ProcessId N : G.slotNeighbors(Cur)) {
        uint32_t NS = G.slotOf(N);
        if (!S.visited(NS))
          S.visit(NS, S.Dist[Cur] + 1, Cur);
      }
    }
    std::vector<ProcessId> Component;
    Component.reserve(S.Order.size() - First);
    for (size_t I = First; I != S.Order.size(); ++I)
      Component.push_back(G.slotId(S.Order[I]));
    std::sort(Component.begin(), Component.end());
    Components.push_back(std::move(Component));
  }
  // Roots ascend over NodeIds, so components are already ordered by their
  // smallest node (the root is its component's minimum-id entry point, and
  // every smaller id was visited by an earlier root's BFS).
  return Components;
}

std::optional<uint64_t> dyndist::eccentricity(const Graph &G,
                                              ProcessId Source) {
  if (!G.hasNode(Source))
    return std::nullopt;
  BfsScratch &S = TLScratch;
  if (bfsDense(G, Source, S) != G.nodeCount())
    return std::nullopt;
  uint64_t Ecc = 0;
  for (uint32_t Slot : S.Order)
    Ecc = std::max(Ecc, S.Dist[Slot]);
  return Ecc;
}

std::optional<uint64_t> dyndist::diameter(const Graph &G) {
  size_t N = G.nodeCount();
  if (N == 0)
    return std::nullopt;
  BfsScratch &S = TLScratch;
  if (bfsDense(G, G.nodesView().front(), S) != N)
    return std::nullopt;

  // Double sweep: a BFS from the last node discovered gives the first lower
  // bound, and the middle of that longest shortest path is the iFUB root.
  bfsDense(G, G.slotId(S.Order.back()), S);
  uint32_t U = S.Order.back();
  uint64_t Lb = S.Dist[U];
  for (uint64_t Step = 0; Step != Lb / 2; ++Step)
    U = S.Parent[U];
  bfsDense(G, G.slotId(U), S);

  // iFUB over U's levels, deepest first. Once every node at level > I has
  // been folded into Lb, the diameter is at most max(Lb, 2I): two nodes at
  // levels <= I are at most 2I apart through U. The fringe BFSes use their
  // own scratch, so S.Order (U's levels in ascending order) stays intact.
  FringeScratch &F = TLFringe;
  F.begin(G);
  size_t End = N;
  for (uint64_t I = S.Dist[S.Order.back()]; Lb < 2 * I; --I) {
    size_t Begin = End;
    while (S.Dist[S.Order[Begin - 1]] == I)
      --Begin;
    for (size_t First = Begin; First < End; First += 64)
      Lb = std::max(Lb, batchEccentricity(G, &S.Order[First],
                                          std::min<size_t>(64, End - First),
                                          F));
    End = Begin;
  }
  return Lb;
}

std::vector<ProcessId> dyndist::ballAround(const Graph &G, ProcessId Source,
                                           uint64_t MaxHops) {
  BfsScratch &S = TLScratch;
  bfsDense(G, Source, S);
  std::vector<ProcessId> Out;
  for (uint32_t Slot : S.Order)
    if (S.Dist[Slot] <= MaxHops)
      Out.push_back(G.slotId(Slot));
  std::sort(Out.begin(), Out.end());
  return Out;
}

std::map<ProcessId, ProcessId> dyndist::bfsTree(const Graph &G,
                                                ProcessId Source) {
  BfsScratch &S = TLScratch;
  bfsDense(G, Source, S);
  std::map<ProcessId, ProcessId> Parent;
  for (uint32_t Slot : S.Order)
    Parent.emplace(G.slotId(Slot), G.slotId(S.Parent[Slot]));
  return Parent;
}

std::vector<ProcessId> dyndist::articulationPoints(const Graph &G) {
  // Iterative Tarjan low-link DFS (the recursion could be deep on chain
  // overlays, which are exactly a case we analyze), over dense slot
  // indices: discovery/low-link/parent live in flat arrays.
  size_t Table = G.slotTableSize();
  std::vector<uint64_t> Disc(Table, 0), Low(Table, 0);
  std::vector<uint32_t> Parent(Table, Graph::NoSlot);
  std::vector<bool> Cut(Table, false);
  uint64_t Clock = 0;

  struct Frame {
    uint32_t Slot;
    NeighborView Nbrs; // Valid: the graph is not mutated while we walk.
    size_t NextNbr = 0;
  };

  std::vector<Frame> Stack;
  for (ProcessId RootId : G.nodesView()) {
    uint32_t Root = G.slotOf(RootId);
    if (Disc[Root] != 0)
      continue;
    size_t RootChildren = 0;
    Parent[Root] = Root;
    Stack.push_back({Root, G.slotNeighbors(Root), 0});
    Disc[Root] = Low[Root] = ++Clock;

    while (!Stack.empty()) {
      Frame &Top = Stack.back();
      if (Top.NextNbr < Top.Nbrs.size()) {
        uint32_t Next = G.slotOf(Top.Nbrs[Top.NextNbr++]);
        if (Disc[Next] == 0) {
          Parent[Next] = Top.Slot;
          if (Top.Slot == Root)
            ++RootChildren;
          Disc[Next] = Low[Next] = ++Clock;
          Stack.push_back({Next, G.slotNeighbors(Next), 0});
        } else if (Next != Parent[Top.Slot]) {
          Low[Top.Slot] = std::min(Low[Top.Slot], Disc[Next]);
        }
        continue;
      }
      // Done with Top: fold its low-link into the parent.
      uint32_t Done = Top.Slot;
      Stack.pop_back();
      if (Stack.empty())
        continue;
      uint32_t Up = Stack.back().Slot;
      Low[Up] = std::min(Low[Up], Low[Done]);
      if (Up != Root && Low[Done] >= Disc[Up])
        Cut[Up] = true;
    }
    if (RootChildren >= 2)
      Cut[Root] = true;
  }

  std::vector<ProcessId> Out;
  for (ProcessId P : G.nodesView())
    if (Cut[G.slotOf(P)])
      Out.push_back(P);
  return Out; // NodeIds ascend, so the cut set ascends.
}
