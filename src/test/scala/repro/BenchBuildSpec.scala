package repro

import java.io.File
import org.scalatest.funsuite.AnyFunSuite
import scala.sys.process._

/** The Table-2 benchmark (`table2bench/`) compiles the main sources together
  * with its own, and some of the main APIs it calls no other test uses, so a
  * change that breaks its build must fail here, not only in a bench run.
  * `build.py` does nothing when its source stamp matches.
  */
class BenchBuildSpec extends AnyFunSuite {

  test("table2bench builds against the main sources") {
    val script = new File("table2bench/build.py")
    assert(script.isFile, s"no ${script.getAbsolutePath}")
    val out = new StringBuffer
    val code = Seq("python3", script.getPath).!(ProcessLogger(line => out.append(line).append('\n')))
    assert(code == 0, s"table2bench/build.py exited with $code:\n$out")
  }
}
