"""Plane embedding of a stripped core, and Kuratowski subdivisions.

The left-right planarity test (de Fraysseix and Rosenstiehl, as laid out by
Brandes 2009) embeds a simple graph in three iterative depth-first passes.
`_face_basis` reads the face boundaries of that embedding, which
`duality.decide_planarity` ships as a superbase of trace exactly 2m; on a
nonplanar core, `_kuratowski_subdivision` deletes edges while the graph stays
nonplanar and reads the branch sets of the K5 or K3,3 subdivision left.

Each half-edge step of a walk and each planarity test of the extraction
spends one unit of the caller's `SearchBudget`.  The module imports only
`graphs`, and `decide_planarity` loads it on its first call, so a process
that never decides planarity never compiles it.
"""

from .graphs import MultiGraph, SearchBudget, components, neighbour_sets


class _LeftRight:
    """Left-right planarity test of a simple graph on vertices 0..n-1.

    Three depth-first passes, each iterative so that depth never meets the
    recursion limit: the constructor orients the graph along a DFS tree and
    computes lowpoints and nesting depths; `planar` runs the constraint stack
    of conflicting return edges; `rotation` fixes the side of every back edge
    and lays out a plane embedding.  Every half-edge step spends one unit of
    `budget`.  A conflict pair is a list [left low, left high, right low,
    right high] of edge ids, None marking an empty interval.
    """

    def __init__(self, n, edges, budget: SearchBudget):
        m = len(edges)
        self.n = n
        self.budget = budget
        self.adj = [[] for _ in range(n)]
        for k, (u, v) in enumerate(edges):
            self.adj[u].append((v, k))
            self.adj[v].append((u, k))
        self.tail = [None] * m
        self.head = [None] * m
        self.height = [None] * n
        self.parent_edge = [None] * n
        self.lowpt = [0] * m
        self.lowpt2 = [0] * m
        self.nesting = [0] * m
        self.out = [[] for _ in range(n)]  # oriented edges leaving each vertex
        self.roots = []
        self.ref = [None] * m
        self.side = [1] * m
        self.lowpt_edge = [None] * m
        self.stack_bottom = [None] * m
        self.stack = []  # conflict pairs
        self._orient()

    def _orient(self):
        height, parent_edge = self.height, self.parent_edge
        nxt = [0] * self.n
        for root in range(self.n):
            if height[root] is not None:
                continue
            height[root] = 0
            self.roots.append(root)
            path = [root]
            while path:
                v = path[-1]
                if nxt[v] == len(self.adj[v]):
                    path.pop()
                    if parent_edge[v] is not None:
                        self._settle(parent_edge[v])
                    continue
                w, k = self.adj[v][nxt[v]]
                nxt[v] += 1
                self.budget.spend()
                if self.tail[k] is not None:
                    continue  # met again from its other end
                self.tail[k], self.head[k] = v, w
                self.out[v].append(k)
                self.lowpt[k] = self.lowpt2[k] = height[v]
                if height[w] is None:  # tree edge
                    parent_edge[w] = k
                    height[w] = height[v] + 1
                    path.append(w)
                else:  # back edge to an ancestor
                    self.lowpt[k] = height[w]
                    self._settle(k)
        for edges in self.out:
            edges.sort(key=self.nesting.__getitem__)

    def _settle(self, k):
        """Nesting depth of the finished edge k, and its lowpoints passed up
        to the tree edge into its tail."""
        lowpt, lowpt2 = self.lowpt, self.lowpt2
        v = self.tail[k]
        self.nesting[k] = 2 * lowpt[k] + (lowpt2[k] < self.height[v])
        e = self.parent_edge[v]
        if e is None:
            return
        if lowpt[k] < lowpt[e]:
            lowpt2[e] = min(lowpt[e], lowpt2[k])
            lowpt[e] = lowpt[k]
        elif lowpt[k] > lowpt[e]:
            lowpt2[e] = min(lowpt2[e], lowpt[k])
        else:
            lowpt2[e] = min(lowpt2[e], lowpt2[k])

    def planar(self):
        head, height, lowpt = self.head, self.height, self.lowpt
        nxt = [0] * self.n
        started = [False] * len(head)
        for root in self.roots:
            path = [root]
            while path:
                v = path[-1]
                e = self.parent_edge[v]
                out = self.out[v]
                while nxt[v] < len(out):
                    ei = out[nxt[v]]
                    if not started[ei]:
                        started[ei] = True
                        self.budget.spend()
                        self.stack_bottom[ei] = self.stack[-1] if self.stack else None
                        if ei == self.parent_edge[head[ei]]:
                            break  # descend; ei is integrated on the way back
                        self.lowpt_edge[ei] = ei
                        self.stack.append([None, None, ei, ei])
                    if lowpt[ei] < height[v]:  # ei has return edges
                        if ei == out[0]:
                            self.lowpt_edge[e] = self.lowpt_edge[ei]
                        elif not self._add_constraints(ei, e):
                            return False
                    nxt[v] += 1
                if nxt[v] < len(out):
                    path.append(head[out[nxt[v]]])
                    continue
                path.pop()
                if e is not None:
                    self._remove_back_edges(e)
        return True

    def _conflicting(self, pair, i, b):
        """Interval i (0 left, 2 right) of pair holds a return edge that
        ends above the lowpoint of edge b."""
        high = pair[i + 1]
        return high is not None and self.lowpt[high] > self.lowpt[b]

    def _lowest(self, pair):
        if pair[0] is None:
            return self.lowpt[pair[2]]
        if pair[2] is None:
            return self.lowpt[pair[0]]
        return min(self.lowpt[pair[0]], self.lowpt[pair[2]])

    def _extend(self, pair, i, low, high):
        """Chain the interval [low, high] below interval i of pair."""
        if pair[i] is None:
            pair[i + 1] = high
        else:
            self.ref[pair[i]] = high
        pair[i] = low

    def _add_constraints(self, ei, e):
        """Merge the return edges of ei with those of its earlier siblings;
        False when the two sides cannot keep them apart."""
        stack, lowpt = self.stack, self.lowpt
        p = [None, None, None, None]
        while True:  # the return edges of ei all go right
            q = stack.pop()
            if q[0] is not None:
                q[:] = q[2:] + q[:2]
            if q[0] is not None:
                return False
            if lowpt[q[2]] > lowpt[e]:
                self._extend(p, 2, q[2], q[3])
            else:  # returns to the lowpoint of e: same side as lowpt_edge[e]
                self.ref[q[2]] = self.lowpt_edge[e]
            if (stack[-1] if stack else None) is self.stack_bottom[ei]:
                break
        # earlier siblings' return edges that conflict with ei go left
        while stack and (self._conflicting(stack[-1], 0, ei)
                         or self._conflicting(stack[-1], 2, ei)):
            q = stack.pop()
            if self._conflicting(q, 2, ei):
                q[:] = q[2:] + q[:2]
            if self._conflicting(q, 2, ei):
                return False
            if q[2] is not None:
                self._extend(p, 2, q[2], q[3])
            self._extend(p, 0, q[0], q[1])
        if p != [None, None, None, None]:
            stack.append(p)
        return True

    def _remove_back_edges(self, e):
        """Drop the return edges that end at the tail u of e, then give e
        the side of its highest remaining return edge."""
        stack, ref, side, head = self.stack, self.ref, self.side, self.head
        u = self.tail[e]
        while stack and self._lowest(stack[-1]) == self.height[u]:
            p = stack.pop()
            if p[0] is not None:
                side[p[0]] = -1
        if stack:
            p = stack[-1]
            for i in (0, 2):
                while p[i + 1] is not None and head[p[i + 1]] == u:
                    p[i + 1] = ref[p[i + 1]]
                if p[i + 1] is None and p[i] is not None:  # just emptied
                    ref[p[i]] = p[2 - i]
                    side[p[i]] = -1
                    p[i] = None
        if self.lowpt[e] < self.height[u]:  # e has return edges
            high_left, high_right = stack[-1][1], stack[-1][3]
            if high_left is not None and (high_right is None
                                          or self.lowpt[high_left] > self.lowpt[high_right]):
                ref[e] = high_left
            else:
                ref[e] = high_right

    def _sign(self, e):
        """Side of e, resolving its reference chain on the way."""
        chain = []
        k = e
        while self.ref[k] is not None:
            chain.append(k)
            k = self.ref[k]
        for k in reversed(chain):
            self.side[k] *= self.side[self.ref[k]]
            self.ref[k] = None
        return self.side[e]

    def rotation(self):
        """Clockwise neighbour order around each vertex of a plane
        embedding; call only after `planar` returned True."""
        head, out = self.head, self.out
        for k in range(len(head)):
            self.nesting[k] *= self._sign(k)
        for edges in out:
            edges.sort(key=self.nesting.__getitem__)
        cw = [{} for _ in range(self.n)]
        ccw = [{} for _ in range(self.n)]
        for v, edges in enumerate(out):
            ring = [head[k] for k in edges]
            for i, w in enumerate(ring):
                cw[v][w] = ring[(i + 1) % len(ring)]
                ccw[v][w] = ring[i - 1]

        def insert_after(v, anchor, w):
            if anchor is None:
                cw[v][w] = ccw[v][w] = w
                return
            after = cw[v][anchor]
            cw[v][anchor], cw[v][w] = w, after
            ccw[v][after], ccw[v][w] = w, anchor

        # a back edge into w from below w's child c goes clockwise right
        # after c when on the right, else counter-clockwise before the
        # leftmost edge placed so far
        left_ref = [None] * self.n
        right_ref = [None] * self.n
        nxt = [0] * self.n
        for root in self.roots:
            path = [root]
            while path:
                v = path[-1]
                if nxt[v] == len(out[v]):
                    path.pop()
                    continue
                k = out[v][nxt[v]]
                nxt[v] += 1
                self.budget.spend()
                w = head[k]
                if k == self.parent_edge[w]:
                    # the parent goes first, ahead of w's own edges
                    insert_after(w, ccw[w][head[out[w][0]]] if out[w] else None, v)
                    left_ref[v] = right_ref[v] = w
                    path.append(w)
                elif self.side[k] == 1:
                    insert_after(w, right_ref[w], v)
                else:
                    insert_after(w, ccw[w][left_ref[w]], v)
                    left_ref[w] = v
        rings = []
        for v in range(self.n):
            ring = []
            if cw[v]:
                start = w = next(iter(cw[v]))
                while True:
                    ring.append(w)
                    w = cw[v][w]
                    if w == start:
                        break
            rings.append(ring)
        return rings


def _face_basis(core: MultiGraph, cotree, budget: SearchBudget):
    """Face boundaries of a plane embedding of the loopless, bridgeless core,
    as sparse signed edge vectors {edge: +-1} all walked the same way round,
    less one face in each component; None when the core is nonplanar.

    Each edge lies on two faces, once in each direction, so the rows span the
    flow lattice, and with the dropped faces summed into the dependent row
    they make a superbase of trace exactly 2m.  The face dropped is the first
    with the most `cotree` edges: when the fundamental circuits of the forest
    are faces, the rows left are exactly those circuits.  Parallel copies of
    an edge are embedded side by side, in opposite orders at their two ends.
    Each walk must close on its first dart and pass no edge twice, so each
    row is a flow, as `decide_planarity` needs."""
    copies = {}
    for e, (u, v) in enumerate(core.edges):
        copies.setdefault((min(u, v), max(u, v)), []).append(e)
    lr = _LeftRight(core.num_vertices, sorted(copies), budget)
    if not lr.planar():
        return None
    rings = []
    for v, nbrs in enumerate(lr.rotation()):
        ring = []
        for w in nbrs:
            bundle = copies[(min(v, w), max(v, w))]
            ring.extend(bundle if v < w else reversed(bundle))
        rings.append(ring)
    where = [{e: i for i, e in enumerate(ring)} for ring in rings]
    comps = components(core)
    comp_of = {v: c for c, vs in enumerate(comps) for v in vs}
    cotree = set(cotree)
    faces = []  # (component, face)
    seen = set()  # darts (vertex, edge leaving it)
    for v, ring in enumerate(rings):
        for e in ring:
            if (v, e) in seen:
                continue
            row = {}
            x, k = v, e
            while (x, k) not in seen:
                budget.spend()
                seen.add((x, k))
                if k in row:
                    raise AssertionError(f"a face passes edge {k} twice")
                a, b = core.edges[k]
                row[k] = 1 if x == a else -1
                y = b if x == a else a
                x, k = y, rings[y][where[y][k] - 1]
            if (x, k) != (v, e):
                raise AssertionError("a face does not close on its first dart")
            faces.append((comp_of[v], row))
    faces_in = [0] * len(comps)
    dropped = {}  # component -> (cotree edges, index) of the face it drops
    for i, (c, row) in enumerate(faces):
        faces_in[c] += 1
        weight = len(cotree.intersection(row))
        if c not in dropped or weight > dropped[c][0]:
            dropped[c] = (weight, i)
    edges_in = [0] * len(comps)
    for u, _ in core.edges:
        edges_in[comp_of[u]] += 1
    if any(edges_in[c] and faces_in[c] != edges_in[c] - len(vs) + 2
           for c, vs in enumerate(comps)):
        raise AssertionError("the embedding fails Euler's formula")
    drop = {i for _, i in dropped.values()}
    return [row for i, (_, row) in enumerate(faces) if i not in drop]


def _suppressed(core: MultiGraph):
    """The core's simple graph with vertices of degree at most 1 deleted and
    vertices of degree 2 suppressed, as {(a, b): inner path from a to b} with
    a < b.  Of parallel paths one is kept, so the result stays simple; it is
    planar exactly when the core is."""
    nbrs = neighbour_sets(core)
    paths = {(a, b): () for a in nbrs for b in nbrs[a] if a < b}

    def path(a, b):
        inner = paths[(min(a, b), max(a, b))]
        return inner if a < b else inner[::-1]

    todo = list(nbrs)
    while todo:
        v = todo.pop()
        if v not in nbrs or len(nbrs[v]) > 2:
            continue
        ends = sorted(nbrs.pop(v))
        joined = None
        if len(ends) == 2 and ends[1] not in nbrs[ends[0]]:
            joined = path(ends[0], v) + (v,) + path(v, ends[1])
        for w in ends:
            nbrs[w].discard(v)
            del paths[(min(v, w), max(v, w))]
        if joined is None:
            todo.extend(ends)
        else:
            a, b = ends
            nbrs[a].add(b)
            nbrs[b].add(a)
            paths[(a, b)] = joined
    return paths


def _kuratowski_subdivision(core: MultiGraph, budget: SearchBudget):
    """(kind, branch sets) of a K5 or K3,3 subdivision inside a nonplanar
    core, the kind "K5" or "K3,3" and each branch set a sorted vertex tuple.

    Deleting, one at a time, each edge of the suppressed graph that leaves it
    nonplanar ends in an edge-minimal nonplanar graph: a Kuratowski
    subdivision.  Its vertices of degree 3 or more are the branch vertices,
    and each inner path vertex joins the branch set its path starts from."""
    paths = _suppressed(core)
    keep = sorted(paths)
    for edge in sorted(paths):
        trial = [x for x in keep if x != edge]
        budget.spend()
        if not _LeftRight(core.num_vertices, trial, budget).planar():
            keep = trial
    nbrs = {}
    for a, b in keep:
        walk = (a,) + paths[(a, b)] + (b,)
        for x, y in zip(walk, walk[1:]):
            nbrs.setdefault(x, []).append(y)
            nbrs.setdefault(y, []).append(x)
    branch = sorted(v for v, ws in nbrs.items() if len(ws) >= 3)
    owner = {b: b for b in branch}
    joined = {b: set() for b in branch}
    for b in branch:
        for x in nbrs[b]:
            prev, cur = b, x
            while cur not in joined:
                owner.setdefault(cur, b)
                prev, cur = cur, next(y for y in nbrs[cur] if y != prev)
            joined[b].add(cur)
    if len(branch) == 5:
        kind, order = "K5", branch
    elif len(branch) == 6:
        # K3,3's side of branch[0] is the branch vertices not joined to it
        kind, order = "K3,3", sorted(branch, key=lambda b: (b in joined[branch[0]], b))
    else:
        raise AssertionError(f"edge-minimal nonplanar graph has {len(branch)} branch vertices")
    return kind, tuple([tuple(sorted(v for v, b in owner.items() if b == root))
                        for root in order])
