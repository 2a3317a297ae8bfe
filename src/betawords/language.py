"""Factor enumeration for fixed points of substitutions, exact by construction.

Let u = phi(u) be the fixed point and L2 its set of two-letter factors.  Once
every letter c of u has |phi^k(c)| >= n, each length-n factor of u lies
inside phi^k(xy) for some xy in L2 (Allouche & Shallit, *Automatic
Sequences*, ch. 7), and every factor of such a word is a factor of u.  So
the words phi^k(x) phi^k(y) hold exactly the factors of u up to length
min_c |phi^k(c)|, with no heuristic and no stabilization check.

A factor of length at most n lies inside one block phi^k(c) or crosses one
junction, with at most n-1 letters on each side.  So the junction windows
for n, the blocks phi^k(c) and, for each xy in L2, the last n-1 letters of
phi^k(x) followed by the first n-1 of phi^k(y), hold every factor up to
length n, and all their substrings are factors.  No block is built whole:
in a run X^t, a factor of at most n letters that starts before the last
r = min(t, 1 + ceil((n-1)/|X|)) copies of X recurs |X| letters on, and
those copies hold n-1 letters more than one copy, or the whole run.  So the
cut block B_c, each run d^t of phi(c) joined as r copies of B_d one level
down, has the factors up to length n and the first and last n-1 letters of
phi^k(c), and |B_c| >= n just when |phi^k(c)| >= n.  The cut sizes are
counted level by level and checked against the bound before any block is
joined.  The tables are read off two structures built once over these
windows: C(n) from a generalized suffix automaton (Blumer et al. 1985),
whose state s holds the strings of the lengths in (len(link(s)), len(s)],
and the palindromes from a generalized eertree (Rubinchik & Shur 2015),
one node per distinct palindrome with an edge by z to z w z.

Both keep where an occurrence of each state or node ends, and only this
module reads them.  `FactorLanguage(substitution)` is the one oracle, and
each reader is one of its methods: `complexities`, `left_special_factors`
and `reversal_closure_probe` read the automaton, `palindrome_counts` and
`palindrome_extensions` the eertree.
"""

from __future__ import annotations

from collections import Counter
from itertools import accumulate

from .errors import InvalidInputError
from .substitution import Substitution, _next_images, letter

_SEPARATOR = " "  # between the windows; no letter of u
# the most window letters the automaton or the eertree reads, at about 150
# bytes a letter; (45, 1) at n = 10^5 + 3 reads 1.6 million.  Checked
# once, on the cut sizes, so no block is joined past it
MAX_WINDOW_LETTERS = 10 ** 7
_PAST_BOUND = f"the windows are past the bound of {MAX_WINDOW_LETTERS} letters"


def _length(n: int) -> int:
    if n < 0:
        raise InvalidInputError("factor length must be nonnegative")
    return n


def _text(windows: list[str]) -> str:
    """The windows joined into one text, each after a separator."""
    return _SEPARATOR + _SEPARATOR.join(windows)


class FactorLanguage:
    """The language of a substitution fixed point, read off junction windows
    that depend on the length asked alone: no reader changes the oracle."""

    def __init__(self, substitution: Substitution):
        self._runs = runs = {letter(j): image
                             for j, image in enumerate(substitution.runs)}
        # the 2-factors of each image: two runs in turn, or one run of d^t, t > 1
        inner = {c: {x + y for (x, _), (y, _) in zip(rs, rs[1:])}
                 | {d + d for d, t in rs if t > 1} for c, rs in runs.items()}
        # seeded by phi(0), closed under xy -> the 2-factors of phi(xy)
        self.two_factors: set[str] = set()
        new = inner["0"]
        while new:
            self.two_factors |= new
            new = {f for x, y in new
                   for f in (*inner[x], *inner[y], runs[x][-1][0] + runs[y][0][0])
                   } - self.two_factors
        # a letter grows if its image has two letters or more, or is one
        # letter that grows; one that still does not after |alphabet| steps
        # cycles through single letters and never grows
        letters = set("".join(self.two_factors))
        grows = {c for c in letters if sum(t for _, t in runs[c]) > 1}
        for _ in runs:
            grows |= {c for c in letters if runs[c][0][0] in grows}
        if grows != letters:
            raise InvalidInputError("a letter's image never grows")
        self._letters = sorted(letters)

    def _windows(self, n: int) -> list[str]:
        """Junction windows for n, read off the cut blocks B_c at the first
        level with every |B_c| >= n, once their sizes pass the bound check."""
        cut, plans = max(n - 1, 0), []
        sizes = dict.fromkeys(self._letters, 1)  # |B_c| at level 0, B_c = c
        # a level up, each run d^t of phi(c) as r = min(t, 1 + ceil(cut/|B_d|)) B_d
        while min(sizes.values()) < n:
            plan = {c: [(d, min(t, 1 - -cut // sizes[d])) for d, t in self._runs[c]]
                    for c in sizes}
            sizes = {c: sum(r * sizes[d] for d, r in plan[c]) for c in sizes}
            plans.append(plan)
        if sum(sizes.values()) + 2 * cut * len(self.two_factors) > MAX_WINDOW_LETTERS:
            raise InvalidInputError(_PAST_BOUND)
        blocks = {c: c for c in sizes}
        for plan in plans:
            blocks = _next_images(plan, blocks)
        return [*blocks.values()] + [blocks[x][len(blocks[x]) - cut:] + blocks[y][:cut]
                                     for x, y in sorted(self.two_factors)]

    def _automaton(self, n: int) -> tuple:
        """Generalized suffix automaton of the junction windows for n: the
        text as in `_eertree` and, per state, its longest string's length, its
        suffix link (-1 at the root, state 0), its edges (column c holds the
        target by c, or -1) and where in the text an occurrence ends."""
        from array import array  # off the import path of every command
        text = _text(self._windows(n))
        edges = {c: [-1] for c in self._letters}
        columns = list(edges.values())
        length, link, ends, last = [0], [-1], array("l", [0]), 0
        for i, c in enumerate(text):
            if c == _SEPARATOR:
                last = 0
                continue
            to = edges[c]
            if to[last] >= 0:  # the string is in the automaton already
                p, cur = last, None
            else:
                cur = len(length)
                length.append(length[last] + 1)
                link.append(0)
                ends.append(i)
                for column in columns:
                    column.append(-1)
                p = last
                while p != -1 and to[p] < 0:
                    to[p] = cur
                    p = link[p]
                if p == -1:
                    last = cur
                    continue
            q = to[p]
            if length[q] == length[p] + 1:
                target = q
            else:  # split q: its strings up to length[p] + 1 move out
                target = len(length)
                length.append(length[p] + 1)
                link.append(link[q])
                ends.append(ends[q])
                for column in columns:
                    column.append(column[q])
                link[q] = target
                while p != -1 and to[p] == q:
                    to[p] = target
                    p = link[p]
            if cur is None:
                last = target
            else:
                link[cur], last = target, cur
        return text, length, link, edges, ends

    def complexities(self, n_max: int) -> list[int]:
        """Oracle C(0) .. C(n_max), from one suffix automaton."""
        _, length, link, _, _ = self._automaton(_length(n_max))
        # C(n) - C(n-1): the states whose lengths start at n, less those
        # that end at n-1
        starts = Counter(length[s] + 1 for s in link[1:])
        ends = Counter(length[1:])
        return [1, *accumulate(starts[n] - ends[n - 1] for n in range(1, n_max + 1))]

    def _eertree(self, n: int) -> tuple:
        """Generalized eertree of the junction windows for n: the windows
        joined into one text and, per node, the palindrome's length, its
        edges (column z holds the node of z w z, or -1) and the index in the
        text where an occurrence of it ends.  Node 0 is the root of length -1
        and node 1 the empty palindrome, so the nodes of length at most n are
        exactly the palindromic factors of u up to that length."""
        # text[0] and the separators match no letter, so no palindrome
        # reaches from one window into the next
        text = _text(self._windows(n))
        edges = {c: [-1, -1] for c in self._letters}
        columns = list(edges.values())
        length, link, ends, last = [-1, 0], [0, 0], [0, 0], 1
        for i, c in enumerate(text):
            if c == _SEPARATOR:
                last = 1
                continue
            # the longest palindromic suffix x of text[:i] with c x c
            cur, to = last, edges[c]
            while text[i - length[cur] - 1] != c:
                cur = link[cur]
            node = to[cur]
            if node < 0:
                suffix = link[cur]
                while text[i - length[suffix] - 1] != c:
                    suffix = link[suffix]
                node = len(length)
                length.append(length[cur] + 2)
                link.append(to[suffix] if length[cur] >= 0 else 1)
                ends.append(i)
                for column in columns:
                    column.append(-1)
                to[cur] = node
            last = node
        return text, length, edges, ends

    def palindrome_counts(self, n_max: int) -> list[int]:
        """Oracle P(0) .. P(n_max): the eertree's nodes of each length."""
        _, length, _, _ = self._eertree(_length(n_max))
        counts = [0] * (n_max + 1)
        for size in length:
            if 0 <= size <= n_max:
                counts[size] += 1
        return counts

    def palindrome_extensions(self, n: int) -> dict[str, frozenset[str]]:
        """Each palindromic factor w of length n, read off the eertree's nodes
        of that length, with its extensions, the letters z with z w z a factor."""
        text, length, edges, ends = self._eertree(_length(n) + 2)
        return {text[end + 1 - n : end + 1]:
                frozenset(z for z, column in edges.items() if column[node] >= 0)
                for node, (size, end) in enumerate(zip(length, ends)) if size == n}

    def left_special_factors(self, n: int) -> set[str]:
        """Factors of length n with at least two left extensions: in the
        automaton for n+1, the longest strings w of the states of length n
        whose suffix-link children, the states of the z w, differ in z."""
        text, length, link, _, ends = self._automaton(_length(n) + 1)
        pairs = {(s, text[ends[t] - n]) for t, s in enumerate(link)
                 if t and length[s] == n}  # (the state of w, z) per z w
        count = Counter(s for s, _ in pairs)
        return {text[ends[s] + 1 - n : ends[s] + 1] for s in count if count[s] > 1}

    def reversal_closure_probe(self, n_max: int) -> dict:
        """Check reversal-invariance of the factor sets up to n_max.

        Returns {"closed_up_to": n, "witness": w or None}; the witness is the
        least factor whose reversal is not one, at the first length with one.
        """
        # the windows for 1 hold every letter, so the root has an edge by each
        text, length, link, edges, _ = self._automaton(max(_length(n_max), 1))
        best = (n_max + 1, None)
        for piece in text.split(_SEPARATOR):
            state = m = 0  # piece[i : i + m] reversed: the longest such factor
            for i in range(len(piece) - 1, -1, -1):
                to = edges[piece[i]]
                while to[state] < 0:
                    state, m = link[state], length[link[state]]
                state, m = to[state], m + 1
                # piece[i : i + m + 1], if it fits, is a factor; its reversal is not
                if m < min(len(piece) - i, n_max, best[0]):
                    best = min(best, (m + 1, piece[i : i + m + 1]))
        return {"closed_up_to": best[0] - 1, "witness": best[1]}
