package grammar.impl;

public class Nested {
    private static final class Leaf {
        int weight;
    }

    protected abstract static class Base {
        abstract void f();
        protected Base() { }
    }

    public interface Callback {
        void call(int code);
    }

    @Deprecated static class Old extends Base {
        void f() { }
    }

    public final @Sealed class Sub extends Old implements Callback {
        public void call(int code) { if (code > 0) { f(); } }
    }
}
