package repro.core

import org.scalatest.funsuite.AnyFunSuite
import org.scalacheck.Gen
import repro.Props.forAll
import scala.util.Random

/** ΔI arithmetic (paper Eqn. 3) verified against a direct recompute of the
  * objective I = Σᵣ ‖Dᵣ‖²/nᵣ on explicit point sets.
  */
class BoostMathSpec extends AnyFunSuite {

  private def objective(clusters: Seq[Seq[Array[Float]]], d: Int): Double =
    clusters.filter(_.nonEmpty).map { c =>
      val comp = new Array[Double](d)
      c.foreach(VecOps.addTo(comp, _))
      VecOps.normSqD(comp) / c.size
    }.sum

  private val caseGen: Gen[(Int, Int, Int, Long)] =
    for {
      d <- Gen.choose(1, 8)
      nu <- Gen.choose(1, 10)
      nv <- Gen.choose(0, 10)
      seed <- Gen.choose(0L, 100000L)
    } yield (d, nu, nv, seed)

  test("deltaI = insertionGain + removalGain matches a direct recompute of I") {
    forAll(caseGen, trials = 120) { case (d, nu, nv, seed) =>
      val rng = new Random(seed)
      def vec() = Array.fill(d)(rng.nextFloat() * 10 - 5)
      val su = Seq.fill(nu)(vec())
      val sv = Seq.fill(nv)(vec())
      val x = su.head

      val compU = new Array[Double](d); su.foreach(VecOps.addTo(compU, _))
      val compV = new Array[Double](d); sv.foreach(VecOps.addTo(compV, _))
      val normU = VecOps.normSqD(compU)
      val normV = if (nv == 0) 123.456 else VecOps.normSqD(compV) // fallback junk must be ignored
      val xx = VecOps.normSqF(x)

      val delta =
        BoostMath.removalGain(normU, nu, VecOps.dotFD(x, compU), xx) +
          BoostMath.insertionGain(normV, nv, if (nv == 0) 7.7 else VecOps.dotFD(x, compV), xx)

      val before = objective(Seq(su, sv), d)
      val after = objective(Seq(su.tail, sv :+ x), d)
      val direct = after - before
      assert(math.abs(delta - direct) < 1e-6 * (1 + math.abs(direct)),
        s"delta=$delta direct=$direct (d=$d nu=$nu nv=$nv)")
    }
  }

  test("removalGain of a singleton cluster is minus its norm") {
    assert(BoostMath.removalGain(25.0, 1, 5.0, 25.0) == -25.0)
  }

  test("removalGain requires membership") {
    assertThrows[IllegalArgumentException](BoostMath.removalGain(1.0, 0, 0.0, 1.0))
  }

  test("insertionGain into an empty cluster is the squared norm of x") {
    assert(BoostMath.insertionGain(999.0, 0, 123.0, 42.0) == 42.0)
  }

  test("moving x between two identical singletons is neutral") {
    // Su = {x}, Sv = {y} with y == x: I unchanged by the move
    val x = Array(3f, 4f)
    val xx = VecOps.normSqF(x)
    val delta = BoostMath.removalGain(xx, 1, xx, xx) +
      BoostMath.insertionGain(xx, 1, xx, xx)
    assert(math.abs(delta) < 1e-9)
  }

  test("pulling x out of a cluster it pollutes is profitable") {
    // Su = {x, y} with x far from y; moving x to an empty cluster helps
    val x = Array(10f, 0f); val y = Array(-10f, 0f)
    val comp = new Array[Double](2)
    VecOps.addTo(comp, x); VecOps.addTo(comp, y)
    val xx = VecOps.normSqF(x)
    val delta = BoostMath.removalGain(VecOps.normSqD(comp), 2, VecOps.dotFD(x, comp), xx) +
      BoostMath.insertionGain(0.0, 0, 0.0, xx)
    assert(delta > 0)
  }
}
