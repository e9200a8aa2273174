package repro.core

import org.apache.spark.sql.Dataset
import scala.collection.mutable
import scala.util.Random

/** Two-means tree initialisation (paper Alg. 1): pop the largest cluster,
  * 2-means it, and cut it at the margin median, until k clusters exist —
  * `O(d·n·log k)`.
  *
  * The tree runs on the driver, over the vectors in id order: `twoMeansTree`
  * takes them as collected by `Points.collectVecs`, and `cluster` collects
  * them itself. `GraphBuilder.build` collects once and runs every round's
  * tree, and the GK-means fit's init tree, from that copy. The collect adds
  * no new scale limit: the driver already holds the n×κ k-NN graph
  * (12·κ = 240 B per point at κ = 20), and the vectors take 4·d bytes per
  * point (256 B at d = 64), the same order; the tree's working copy
  * ([[Rows]]) takes 16·d bytes per point while it runs. Because the input is
  * ordered by id, the labels depend only on the data and the seed, not on how
  * the points are partitioned.
  */
object TwoMeansTree {

  /** 2-means rounds per bisection, before the median cut. */
  private val BisectIters = 3

  def cluster(points: Dataset[Point], n: Int, k: Int, d: Int, seed: Long): Array[Int] = {
    require(k >= 1 && k <= n, s"need 1 <= k=$k <= n=$n")
    twoMeansTree(Points.collectVecs(points, n, d), k, seed)
  }

  /** The tree's working copy of `vecs(ids(0))`, `vecs(ids(1))`, …: row r
    * (the d values of `buf` from r·d, widened to double once here rather
    * than in every pass) is point `ids(r)`. A tree node is a range
    * `[lo, hi)` of rows, and bisecting it reorders those rows so that its
    * two halves are the ranges `[lo, mid)` and `[mid, hi)`. With its sort
    * scratch the copy takes 16·d bytes per point.
    */
  private[core] final class Rows(vecs: Array[Array[Float]], order: Array[Int]) {
    val n: Int = order.length
    val d: Int = vecs(order(0)).length
    require(n.toLong * d <= Int.MaxValue, s"n=$n x d=$d values do not fit one array")
    val ids: Array[Int] = order.clone()
    val buf: Array[Double] = new Array[Double](n * d)
    (0 until n).foreach { r =>
      val v = vecs(ids(r))
      (0 until d).foreach(j => buf(r * d + j) = v(j))
    }

    // Scratch for one bisection: margins and sort order of the node's rows
    // (indexed from the node's start), and the rows rewritten in that order.
    private val margin = new Array[Double](n)
    private val perm = new Array[Int](n)
    private val spare = new Array[Double](n * d)
    private val spareIds = new Array[Int](n)

    private def row(r: Int): Array[Double] = java.util.Arrays.copyOfRange(buf, r * d, r * d + d)

    /** Bisect node `[lo, hi)` into two equal halves (paper Alg. 1 steps 8-9):
      * a few 2-means rounds to orient the split, then the equal-size
      * adjustment — sort by margin `d(x,c₁) − d(x,c₂)`, then by id, and cut
      * at the median. Returns `mid`; the left half `[lo, mid)` gets the extra
      * row on odd sizes.
      */
    def bisectEqual(lo: Int, hi: Int, rng: Random): Int = {
      val len = hi - lo
      require(len >= 2, "cannot bisect fewer than 2 points")
      // Two distinct random seeds, drawn by position in the node.
      val s1 = rng.nextInt(len)
      var s2 = rng.nextInt(len)
      var guard = 0
      while (s2 == s1 && guard < 16) { s2 = rng.nextInt(len); guard += 1 }
      var c1 = row(lo + s1)
      var c2 = row(lo + s2)

      var t = 0
      while (t < BisectIters) {
        margins(lo, hi, c1, c2)
        val a1 = new Array[Double](d); val a2 = new Array[Double](d)
        var n1 = 0L; var n2 = 0L
        var r = lo
        while (r < hi) {
          if (margin(r - lo) <= 0.0) { VecOps.addRowTo(a1, buf, r * d); n1 += 1 }
          else { VecOps.addRowTo(a2, buf, r * d); n2 += 1 }
          r += 1
        }
        if (n1 > 0) c1 = VecOps.centroidOf(a1, n1)
        if (n2 > 0) c2 = VecOps.centroidOf(a2, n2)
        t += 1
      }

      // Equal-size adjustment: margin sort, rows rewritten in that order.
      margins(lo, hi, c1, c2)
      var j = 0
      while (j < len) { perm(j) = j; j += 1 }
      sort(lo, 0, len - 1)
      j = 0
      while (j < len) {
        val r = lo + perm(j)
        System.arraycopy(buf, r * d, spare, j * d, d)
        spareIds(j) = ids(r)
        j += 1
      }
      System.arraycopy(spare, 0, buf, lo * d, len * d)
      System.arraycopy(spareIds, 0, ids, lo, len)
      lo + len / 2 + len % 2
    }

    /** `margin(r − lo)` = `d(x,c₁) − d(x,c₂)` for each row r of `[lo, hi)`,
      * two rows at a time, an odd last row alone; a row is nearer c₁ (or as
      * near) exactly when its margin is ≤ 0.
      */
    private def margins(lo: Int, hi: Int, c1: Array[Double], c2: Array[Double]): Unit = {
      var r = lo
      while (r + 1 < hi) { VecOps.sqDistDiffDD2(buf, r * d, c1, c2, margin, r - lo); r += 2 }
      if (r < hi) margin(r - lo) = VecOps.sqDistDiffDD(buf, r * d, c1, c2)
    }

    /** Whether node row a (at `lo + a`) sorts before node row b: by margin,
      * in `java.lang.Double.compare` order, then by id.
      */
    private def before(lo: Int, a: Int, b: Int): Boolean = {
      val c = java.lang.Double.compare(margin(a), margin(b))
      c < 0 || (c == 0 && ids(lo + a) < ids(lo + b))
    }

    private def swap(i: Int, j: Int): Unit = { val t = perm(i); perm(i) = perm(j); perm(j) = t }

    /** Sorts `perm(from..to)` (inclusive) by `before`: quicksort on a
      * median-of-three pivot, insertion sort below 16 rows. The keys are
      * distinct, because the ids are, so the order is the one total order.
      */
    private def sort(lo: Int, from: Int, to: Int): Unit = {
      var l = from; var h = to
      while (h - l >= 16) {
        val m = (l + h) >>> 1
        if (before(lo, perm(m), perm(l))) swap(l, m)
        if (before(lo, perm(h), perm(l))) swap(l, h)
        if (before(lo, perm(h), perm(m))) swap(m, h)
        val pivot = perm(m)
        var i = l; var j = h
        while (i <= j) {
          while (before(lo, perm(i), pivot)) i += 1
          while (before(lo, pivot, perm(j))) j -= 1
          if (i <= j) { swap(i, j); i += 1; j -= 1 }
        }
        // perm(l..j) sorts before the pivot's place and perm(i..h) after it;
        // recurse on the smaller side so the stack stays O(log n).
        if (j - l < h - i) { sort(lo, l, j); l = i }
        else { sort(lo, i, h); h = j }
      }
      var a = l + 1
      while (a <= h) {
        val x = perm(a)
        var b = a - 1
        while (b >= l && before(lo, x, perm(b))) { perm(b + 1) = perm(b); b -= 1 }
        perm(b + 1) = x
        a += 1
      }
    }
  }

  /** A tree node: rows `[lo, hi)` of the tree's [[Rows]]. */
  private final case class Node(lo: Int, hi: Int)

  /** The tree itself: repeatedly pop the largest cluster and bisect it with
    * the equal-size adjustment until `leaves` clusters exist. Returns a label
    * in `[0, leaves)` per input position.
    */
  def twoMeansTree(vecs: Array[Array[Float]], leaves: Int, seed: Long): Array[Int] = {
    require(leaves >= 1 && leaves <= vecs.length, s"need 1 <= leaves=$leaves <= n=${vecs.length}")
    val rng = new Random(seed)
    val labels = new Array[Int](vecs.length)
    if (leaves == 1) return labels

    val rows = new Rows(vecs, Array.range(0, vecs.length))
    // Max-heap of nodes by size.
    val pq = mutable.PriorityQueue(Node(0, vecs.length))(Ordering.by((c: Node) => c.hi - c.lo))
    while (pq.size < leaves) {
      val big = pq.dequeue()
      val mid = rows.bisectEqual(big.lo, big.hi, rng)
      pq.enqueue(Node(big.lo, mid)); pq.enqueue(Node(mid, big.hi))
    }
    var lab = 0
    pq.dequeueAll[Node].foreach { c =>
      (c.lo until c.hi).foreach(r => labels(rows.ids(r)) = lab)
      lab += 1
    }
    labels
  }
}
