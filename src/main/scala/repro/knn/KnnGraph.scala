package repro.knn

import repro.core.VecOps
import scala.util.Random

/** Approximate k-NN graph `G[n][κ]`: per node, up to κ neighbour ids sorted
  * by ascending distance, with the distances kept alongside so candidate
  * merges (Alg. 3 line 11, NN-Descent updates) are O(κ) insertions.
  *
  * Rows from `random` start with `Double.MaxValue` distances, so any real
  * candidate displaces them — the paper's random initial graph G⁰.
  */
final class KnnGraph(
    val ids: Array[Array[Int]],
    val dists: Array[Array[Double]],
) extends Serializable {
  def n: Int = ids.length
  def kappa: Int = if (n == 0) 0 else ids(0).length

  /** Insert candidate (j, dist) into row i; returns true if inserted. This
    * is the repo's one top-κ rule (Alg. 3 lines 8-14 and its line-11 merge,
    * NN-Descent's rows, `bruteForce`). The candidate goes after every entry at
    * a distance ≤ its own, so one that only ties the worst entry is rejected
    * and an id already listed at a distance ≤ `dist` stays as it is. An id
    * listed further down moves up from its old slot; otherwise the worst
    * entry drops out. Candidates merged in ascending id order therefore leave
    * a row in (distance, id) order.
    */
  def merge(i: Int, j: Int, dist: Double): Boolean = {
    if (i == j) return false
    val row = ids(i); val dd = dists(i)
    val last = row.length - 1
    if (dist >= dd(last)) return false
    var p = 0
    while (dd(p) <= dist) { // stops at `last` at the latest, since dd(last) > dist
      if (row(p) == j) return false
      p += 1
    }
    var m = p
    while (m < last && row(m) != j) m += 1
    while (m > p) { row(m) = row(m - 1); dd(m) = dd(m - 1); m -= 1 }
    row(p) = j; dd(p) = dist
    true
  }
}

object KnnGraph {

  /** Random initial graph: κ distinct non-self neighbours per node, unknown
    * (MaxValue) distances.
    */
  def random(n: Int, kappa: Int, seed: Long): KnnGraph = {
    require(kappa >= 1 && kappa < n, s"need 1 <= kappa=$kappa < n=$n")
    val rng = new Random(seed)
    val ids = Array.ofDim[Int](n, kappa)
    val dists = Array.fill(n, kappa)(Double.MaxValue)
    val seen = new java.util.BitSet(n) // the ids of the current row
    var i = 0
    while (i < n) {
      var j = 0
      while (j < kappa) {
        var c = rng.nextInt(n)
        while (c == i || seen.get(c)) c = rng.nextInt(n)
        seen.set(c)
        ids(i)(j) = c
        j += 1
      }
      ids(i).foreach(seen.clear)
      i += 1
    }
    new KnnGraph(ids, dists)
  }

  /** Exact graph over in-memory vectors: min(κ, n − 1) entries per row, in
    * (distance, id) order; with n ≤ 1 the rows are empty. Every pair a < b is
    * measured once, as `sqDistFF(vecs(a), vecs(b))`, and merged into both
    * rows of a placeholder graph (ids −1, distances `Double.MaxValue`); each
    * row receives its candidates in ascending id order, which `merge` needs
    * for that order.
    */
  def bruteForce(vecs: Array[Array[Float]], kappa: Int): KnnGraph = {
    require(kappa >= 1, s"need kappa=$kappa >= 1")
    val n = vecs.length
    val keep = math.min(kappa, n - 1)
    val g = new KnnGraph(Array.fill(n, keep)(-1), Array.fill(n, keep)(Double.MaxValue))
    var a = 0
    while (a < n) {
      var b = a + 1
      while (b < n) {
        val dd = VecOps.sqDistFF(vecs(a), vecs(b))
        g.merge(a, b, dd); g.merge(b, a, dd)
        b += 1
      }
      a += 1
    }
    g
  }
}
