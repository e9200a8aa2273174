package repro.core

import org.scalatest.funsuite.AnyFunSuite
import scala.collection.mutable
import scala.util.Random

/** The two-means tree as it was written before it ran on one contiguous
  * buffer: each node an array of point indices, split by a boxed
  * `(margin, index)` sort. Kept verbatim as the oracle the buffer tree must
  * match label for label.
  */
object BoxedTwoMeansTree {

  /** 2-means rounds per bisection, before the median cut. */
  private val BisectIters = 3

  /** Bisect the points at `idx` into two equal halves (paper Alg. 1 steps
    * 8-9): a few 2-means rounds to orient the split, then the equal-size
    * adjustment — sort by margin `d(x,c₁) − d(x,c₂)` and cut at the median.
    *
    * Returns (left indices, right indices); sizes differ by at most 1.
    */
  def bisectEqual(vecs: Array[Array[Float]], idx: Array[Int], rng: Random): (Array[Int], Array[Int]) = {
    require(idx.length >= 2, "cannot bisect fewer than 2 points")
    val d = vecs(idx(0)).length
    // Two distinct random seeds.
    val s1 = idx(rng.nextInt(idx.length))
    var s2 = idx(rng.nextInt(idx.length))
    var guard = 0
    while (s2 == s1 && guard < 16) { s2 = idx(rng.nextInt(idx.length)); guard += 1 }
    var c1 = vecs(s1).map(_.toDouble)
    var c2 = vecs(s2).map(_.toDouble)

    var t = 0
    while (t < BisectIters) {
      val a1 = new Array[Double](d); val a2 = new Array[Double](d)
      var n1 = 0L; var n2 = 0L
      var i = 0
      while (i < idx.length) {
        val v = vecs(idx(i))
        if (VecOps.sqDistFD(v, c1) <= VecOps.sqDistFD(v, c2)) { VecOps.addTo(a1, v); n1 += 1 }
        else { VecOps.addTo(a2, v); n2 += 1 }
        i += 1
      }
      if (n1 > 0) c1 = VecOps.centroidOf(a1, n1)
      if (n2 > 0) c2 = VecOps.centroidOf(a2, n2)
      t += 1
    }

    // Equal-size adjustment: margin sort, cut in the middle.
    val margins = idx.map { j =>
      val v = vecs(j)
      (VecOps.sqDistFD(v, c1) - VecOps.sqDistFD(v, c2), j)
    }
    val sorted = margins.sortBy(m => (m._1, m._2))
    val half = idx.length / 2 + (idx.length % 2) // left gets the extra on odd sizes
    (sorted.take(half).map(_._2), sorted.drop(half).map(_._2))
  }

  /** The tree itself: repeatedly pop the largest cluster and bisect it with
    * the equal-size adjustment until `leaves` clusters exist. Returns a label
    * in `[0, leaves)` per input position.
    */
  def twoMeansTree(vecs: Array[Array[Float]], leaves: Int, seed: Long): Array[Int] = {
    require(leaves >= 1 && leaves <= vecs.length, s"need 1 <= leaves=$leaves <= n=${vecs.length}")
    val rng = new Random(seed)
    val labels = new Array[Int](vecs.length)
    if (leaves == 1) return labels

    // Max-heap of clusters by size; each cluster is its member indices.
    implicit val bySize: Ordering[Array[Int]] = Ordering.by((a: Array[Int]) => a.length)
    val pq = mutable.PriorityQueue[Array[Int]](Array.range(0, vecs.length))
    while (pq.size < leaves) {
      val big = pq.dequeue()
      val (l, r) = bisectEqual(vecs, big, rng)
      pq.enqueue(l); pq.enqueue(r)
    }
    var lab = 0
    pq.dequeueAll[Array[Int]].foreach { cluster =>
      cluster.foreach(i => labels(i) = lab)
      lab += 1
    }
    labels
  }
}

/** `TwoMeansTree` on its row buffer gives the boxed tree's labels, bit for
  * bit: same seeds, same summation order, same (margin, id) split order and
  * same pop order.
  */
class TwoMeansTreeOracleSpec extends AnyFunSuite {

  private def gaussian(n: Int, d: Int, seed: Long): Array[Array[Float]] = {
    val rng = new Random(seed)
    val centres = Array.fill(8, d)(rng.nextGaussian() * 5)
    Array.fill(n) {
      val c = centres(rng.nextInt(8))
      Array.tabulate(d)(j => (c(j) + rng.nextGaussian()).toFloat)
    }
  }

  /** Values on a 3-point grid: many points coincide, so many margins tie
    * and the id order decides the split.
    */
  private def grid(n: Int, d: Int, seed: Long): Array[Array[Float]] = {
    val rng = new Random(seed)
    Array.fill(n, d)(rng.nextInt(3).toFloat)
  }

  /** (n, k, seed) cases: odd and even sizes, and k = 1, 2, n and between. */
  private def cases(sizes: Seq[Int]): Seq[(Int, Int, Long)] =
    for {
      n <- sizes
      k <- Seq(1, 2, n, math.max(1, n / 3), math.max(1, n / 10)).distinct.filter(_ <= n)
      seed <- Seq(1L, 77L)
    } yield (n, k, seed)

  private def check(name: String, data: (Int, Int, Long) => Array[Array[Float]], sizes: Seq[Int], d: Int): Unit =
    test(s"buffer tree equals the boxed tree on $name data (d=$d)") {
      val cs = cases(sizes)
      assert(cs.length >= 30)
      cs.foreach { case (n, k, seed) =>
        val vecs = data(n, d, seed)
        assert(TwoMeansTree.twoMeansTree(vecs, k, seed) sameElements BoxedTwoMeansTree.twoMeansTree(vecs, k, seed),
          s"n=$n k=$k seed=$seed")
      }
    }

  check("gaussian", (n, d, s) => gaussian(n, d, s), Seq(1, 2, 3, 8, 33, 100, 257, 600), 5)
  check("gaussian", (n, d, s) => gaussian(n, d, s), Seq(2, 17, 64, 1001), 16)
  check("3-value grid", (n, d, s) => grid(n, d, s), Seq(2, 5, 50, 101, 300), 1)
  check("3-value grid", (n, d, s) => grid(n, d, s), Seq(3, 64, 255, 400), 3)

  test("buffer bisection equals the boxed bisection on a node whose rows are not in id order") {
    val vecs = grid(120, 2, 9)
    val idx = new Random(4).shuffle(Seq.range(0, 120)).toArray
    val (l, r) = BoxedTwoMeansTree.bisectEqual(vecs, idx, new Random(3))
    val rows = new TwoMeansTree.Rows(vecs, idx)
    val mid = rows.bisectEqual(0, idx.length, new Random(3))
    assert(rows.ids.take(mid) sameElements l)
    assert(rows.ids.drop(mid) sameElements r)
  }
}
