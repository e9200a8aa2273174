package repro.knn

import org.scalatest.funsuite.AnyFunSuite
import org.scalacheck.Gen
import repro.Props.forAll
import repro.core.VecOps
import scala.util.Random

/** KnnGraph invariants: random init, sorted-unique merge semantics, and the
  * brute-force reference construction.
  */
class KnnGraphSpec extends AnyFunSuite {

  private def randVecs(n: Int, d: Int, seed: Long): Array[Array[Float]] = {
    val rng = new Random(seed)
    Array.fill(n)(Array.fill(d)(rng.nextFloat() * 10))
  }

  test("random graph rows contain no self loops") {
    val g = KnnGraph.random(50, 8, 1)
    g.ids.zipWithIndex.foreach { case (row, i) => assert(!row.contains(i)) }
  }

  test("random graph rows contain no duplicates") {
    val g = KnnGraph.random(50, 8, 2)
    g.ids.foreach(row => assert(row.distinct.length == row.length))
  }

  test("random graph distances start at MaxValue") {
    val g = KnnGraph.random(20, 4, 3)
    assert(g.dists.flatten.forall(_ == Double.MaxValue))
  }

  test("random graph draws the rows of a per-row HashSet rejection loop") {
    // the draw as written before the reused BitSet: same RNG calls, same rows
    def hashSetDraw(n: Int, kappa: Int, seed: Long): Array[Array[Int]] = {
      val rng = new Random(seed)
      Array.tabulate(n) { i =>
        val seen = new java.util.HashSet[Int]()
        Array.fill(kappa) {
          var c = rng.nextInt(n)
          while (c == i || seen.contains(c)) c = rng.nextInt(n)
          seen.add(c)
          c
        }
      }
    }
    Seq((2, 1, 1L), (10, 9, 2L), (50, 8, 3L), (300, 20, 4L)).foreach { case (n, kappa, seed) =>
      val want = hashSetDraw(n, kappa, seed)
      val got = KnnGraph.random(n, kappa, seed).ids
      (0 until n).foreach(i => assert(got(i) sameElements want(i), s"n=$n kappa=$kappa row $i"))
    }
  }

  test("random graph requires kappa < n") {
    assertThrows[IllegalArgumentException](KnnGraph.random(5, 5, 1))
  }

  test("merge inserts a real candidate over a MaxValue placeholder") {
    val g = KnnGraph.random(10, 3, 4)
    val cand = (0 until 10).find(c => c != 0 && !g.ids(0).contains(c)).get
    assert(g.merge(0, cand, 5.0))
    assert(g.ids(0)(0) == cand && g.dists(0)(0) == 5.0)
  }

  test("merge keeps rows sorted and unique under random hammering") {
    val caseGen = for {
      n <- Gen.choose(5, 30)
      kappa <- Gen.choose(1, 4)
      seed <- Gen.choose(0L, 1000L)
    } yield (n, kappa, seed)
    forAll(caseGen, trials = 30) { case (n, kappa, seed) =>
      val g = KnnGraph.random(n, math.min(kappa, n - 1), seed)
      val rng = new Random(seed)
      (0 until 200).foreach { _ =>
        val i = rng.nextInt(n)
        var j = rng.nextInt(n)
        if (j == i) j = (j + 1) % n
        g.merge(i, j, rng.nextDouble() * 100)
      }
      g.ids.zip(g.dists).zipWithIndex.foreach { case ((row, dd), i) =>
        assert(!row.contains(i), "self loop")
        assert(row.distinct.length == row.length, "duplicate id")
        assert(dd.toSeq == dd.sorted.toSeq, "unsorted distances")
      }
    }
  }

  test("merge rejects candidates worse than the current worst") {
    val g = new KnnGraph(Array(Array(1, 2)), Array(Array(1.0, 2.0)))
    assert(!g.merge(0, 3, 5.0))
    assert(g.ids(0).toSeq == Seq(1, 2))
  }

  test("merge rejects self") {
    val g = new KnnGraph(Array(Array(1, 2)), Array(Array(1.0, 2.0)))
    assert(!g.merge(0, 0, 0.5))
  }

  test("merge rejects an id already present at a better distance") {
    val g = new KnnGraph(Array(Array(1, 2)), Array(Array(1.0, 2.0)))
    assert(!g.merge(0, 1, 1.5))
    assert(g.ids(0).toSeq == Seq(1, 2))
  }

  test("merge re-ranks an id already present when its distance improves") {
    val g = new KnnGraph(Array(Array(1, 2)), Array(Array(1.0, 2.0)))
    assert(g.merge(0, 2, 0.5))
    assert(g.ids(0).toSeq == Seq(2, 1))
    assert(g.dists(0).toSeq == Seq(0.5, 1.0))
  }

  test("merge displaces the worst entry") {
    val g = new KnnGraph(Array(Array(1, 2)), Array(Array(1.0, 3.0)))
    assert(g.merge(0, 5, 2.0))
    assert(g.ids(0).toSeq == Seq(1, 5))
    assert(g.dists(0).toSeq == Seq(1.0, 2.0))
  }

  test("merge places a tie after the entries at that distance and rejects a tie with the worst") {
    val g = new KnnGraph(Array(Array(-1, -1)), Array(Array(Double.MaxValue, Double.MaxValue)))
    assert(g.merge(0, 5, 1.0))
    assert(g.merge(0, 3, 1.0))
    assert(g.ids(0).toSeq == Seq(5, 3))
    assert(!g.merge(0, 1, 1.0))
    assert(g.ids(0).toSeq == Seq(5, 3))
  }

  test("bruteForce graph matches an independent reference") {
    // the second input lies on a 3-value grid, so exact distance ties are common
    val rng = new Random(7)
    Seq(randVecs(25, 4, 5), Array.fill(25, 3)(rng.nextInt(3).toFloat)).foreach { vecs =>
      val g = KnnGraph.bruteForce(vecs, 3)
      (0 until 25).foreach { i =>
        val expect = (0 until 25).filter(_ != i)
          .map(j => (VecOps.sqDistFF(vecs(i), vecs(j)), j))
          .sortBy(x => (x._1, x._2)).take(3)
        assert(g.ids(i).toSeq == expect.map(_._2))
        assert(g.dists(i).toSeq == expect.map(_._1))
      }
    }
  }

  test("bruteForce caps kappa at n-1") {
    val g = KnnGraph.bruteForce(randVecs(4, 3, 6), 10)
    assert(g.kappa == 3)
  }
}
