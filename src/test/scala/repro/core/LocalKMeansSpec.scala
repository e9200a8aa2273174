package repro.core

import org.scalatest.funsuite.AnyFunSuite
import scala.util.Random

/** In-memory kernels, no Spark: the equal-size bisection and pop-largest
  * tree of Alg. 1 (`TwoMeansTree`) and the in-cluster exhaustive top-κ
  * refinement of Alg. 3 (`LocalKMeans`).
  */
class LocalKMeansSpec extends AnyFunSuite {

  private def mixture(n: Int, d: Int, centers: Int, seed: Long): (Array[Array[Float]], Array[Int]) = {
    val rng = new Random(seed)
    val cs = Array.fill(centers, d)(rng.nextDouble().toFloat * 10f)
    val gt = new Array[Int](n)
    val vecs = Array.tabulate(n) { i =>
      val c = rng.nextInt(centers); gt(i) = c
      Array.tabulate(d)(j => (cs(c)(j) + rng.nextGaussian() * 0.2).toFloat)
    }
    (vecs, gt)
  }

  /** `TwoMeansTree`'s bisection of the points at `idx`, as (left ids, right
    * ids): a tree buffer of those rows, bisected as one node.
    */
  private def bisectEqual(vecs: Array[Array[Float]], idx: Array[Int], rng: Random): (Array[Int], Array[Int]) = {
    val rows = new TwoMeansTree.Rows(vecs, idx)
    val mid = rows.bisectEqual(0, idx.length, rng)
    (rows.ids.take(mid), rows.ids.drop(mid))
  }

  test("bisectEqual splits an even set into equal halves") {
    val (vecs, _) = mixture(100, 4, 2, 1)
    val (l, r) = bisectEqual(vecs, Array.range(0, 100), new Random(1))
    assert(l.length == 50 && r.length == 50)
  }

  test("bisectEqual on odd sizes differs by exactly one") {
    val (vecs, _) = mixture(101, 4, 2, 2)
    val (l, r) = bisectEqual(vecs, Array.range(0, 101), new Random(1))
    assert(math.abs(l.length - r.length) == 1)
  }

  test("bisectEqual partitions the input exactly") {
    val (vecs, _) = mixture(60, 3, 3, 3)
    val idx = Array.range(0, 60)
    val (l, r) = bisectEqual(vecs, idx, new Random(2))
    assert((l ++ r).sorted sameElements idx)
  }

  test("bisectEqual separates two well-separated blobs") {
    val rng = new Random(4)
    val vecs = Array.tabulate(80) { i =>
      val base = if (i < 40) 0f else 100f
      Array.tabulate(4)(_ => base + rng.nextGaussian().toFloat)
    }
    val (l, r) = bisectEqual(vecs, Array.range(0, 80), new Random(5))
    val lSet = l.toSet
    // one side should be exactly one blob
    assert(lSet == (0 until 40).toSet || lSet == (40 until 80).toSet)
  }

  test("bisectEqual refuses singleton input") {
    val (vecs, _) = mixture(5, 2, 1, 5)
    assertThrows[IllegalArgumentException](bisectEqual(vecs, Array(1), new Random(1)))
  }

  for (leaves <- Seq(1, 2, 3, 7, 16, 50)) {
    test(s"twoMeansTree produces exactly $leaves non-empty leaves") {
      val (vecs, _) = mixture(200, 6, 8, 6)
      val labels = TwoMeansTree.twoMeansTree(vecs, leaves, 7)
      assert(labels.forall(l => l >= 0 && l < leaves))
      assert(labels.distinct.length == leaves)
    }
  }

  test("twoMeansTree leaf sizes are near-equal") {
    val (vecs, _) = mixture(256, 6, 8, 8)
    val labels = TwoMeansTree.twoMeansTree(vecs, 16, 9)
    val sizes = labels.groupBy(identity).map(_._2.length)
    assert(sizes.max <= 2 * sizes.min, s"sizes=$sizes")
  }

  test("twoMeansTree with leaves == n gives singleton clusters") {
    val (vecs, _) = mixture(40, 4, 4, 10)
    val labels = TwoMeansTree.twoMeansTree(vecs, 40, 11)
    assert(labels.distinct.length == 40)
  }

  test("twoMeansTree is deterministic in the seed") {
    val (vecs, _) = mixture(120, 5, 6, 12)
    val a = TwoMeansTree.twoMeansTree(vecs, 10, 13)
    val b = TwoMeansTree.twoMeansTree(vecs, 10, 13)
    assert(a sameElements b)
  }

  test("twoMeansTree beats random labels on distortion") {
    val (vecs, _) = mixture(300, 6, 10, 14)
    val labels = TwoMeansTree.twoMeansTree(vecs, 10, 15)
    val rng = new Random(16)
    val randomLabels = Array.fill(300)(rng.nextInt(10))
    val tree = repro.TestData.localDistortion(vecs, labels, 10)
    val rand = repro.TestData.localDistortion(vecs, randomLabels, 10)
    assert(tree < 0.8 * rand, s"tree=$tree rand=$rand")
  }

  test("twoMeansTree rejects impossible leaf counts") {
    val (vecs, _) = mixture(10, 3, 2, 17)
    assertThrows[IllegalArgumentException](TwoMeansTree.twoMeansTree(vecs, 11, 1))
    assertThrows[IllegalArgumentException](TwoMeansTree.twoMeansTree(vecs, 0, 1))
  }

  test("inClusterTopK matches a brute-force reference") {
    // the second input lies on a 3-value grid, so exact distance ties are common
    val rng = new Random(22)
    val inputs = Seq(mixture(30, 4, 3, 18)._1, Array.fill(30, 3)(rng.nextInt(3).toFloat))
    val ids = Array.tabulate(30)(i => (i + 100).toLong) // non-trivial global ids
    inputs.foreach { vecs =>
      val out = LocalKMeans.inClusterTopK(ids, vecs, 5)
      assert(out.length == 30)
      out.zipWithIndex.foreach { case (ch, i) =>
        val expect = vecs.indices.filter(_ != i)
          .map(j => (VecOps.sqDistFF(vecs(i), vecs(j)), ids(j)))
          .sortBy(x => (x._1, x._2)).take(5)
        assert(ch.id == ids(i))
        assert(ch.nbrs.toSeq == expect.map(_._2.toInt))
        assert(ch.dists.toSeq == expect.map(_._1))
      }
    }
  }

  test("inClusterTopK distances are sorted ascending") {
    val (vecs, _) = mixture(25, 4, 2, 19)
    val out = LocalKMeans.inClusterTopK(Array.tabulate(25)(_.toLong), vecs, 8)
    out.foreach(ch => assert(ch.dists.toSeq == ch.dists.sorted.toSeq))
  }

  test("inClusterTopK caps lists at cluster size minus one") {
    val (vecs, _) = mixture(4, 3, 1, 20)
    val out = LocalKMeans.inClusterTopK(Array.tabulate(4)(_.toLong), vecs, 10)
    out.foreach(ch => assert(ch.nbrs.length == 3))
  }

  test("inClusterTopK on a singleton cluster is empty") {
    assert(LocalKMeans.inClusterTopK(Array(5L), Array(Array(1f, 2f)), 4).isEmpty)
  }

  test("inClusterTopK never lists a point as its own neighbour") {
    val (vecs, _) = mixture(20, 4, 2, 21)
    val out = LocalKMeans.inClusterTopK(Array.tabulate(20)(_.toLong), vecs, 6)
    out.foreach(ch => assert(!ch.nbrs.contains(ch.id.toInt)))
  }
}
