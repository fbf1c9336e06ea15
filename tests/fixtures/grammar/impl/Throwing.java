package grammar.impl;

import grammar.err.Failure;
import grammar.err.Timeout;

public abstract class Throwing {
    protected Throwing() throws Failure { }

    public void run(int attempts) throws Failure, Timeout, java.io.IOException {
        for (int i = 0; i < attempts; i++) {
            if (i > 3) { throw new Timeout(i); }
        }
    }

    abstract int poll() throws grammar.err.Timeout;

    static native long clock() throws Failure;
}
